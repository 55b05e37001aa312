"""Host speed: a fixed NumPy kernel, timed beside every timed sweep and set-up.

On a shared host the same code runs at up to 2x different speeds for seconds
to minutes at a time, and the slowdown shows in CPU time as much as in wall
time, so no clock on the benchmark's side removes it. A fixed kernel made of
the same kinds of work as a frame (small complex products, FFTs, sorts,
least squares and interpreter loops) slows by the same factor. The benchmark
times one kernel chunk before and after each timed call and rescales the
call's wall time to a host on which a chunk takes ``REFERENCE_S``:

    rescaled = wall * REFERENCE_S / mean(chunk before, chunk after)

The kernel's work depends on nothing from svcim or the seed, so a change to
svcim moves the rescaled time exactly as it moves the wall time at a fixed
host speed.
"""
from __future__ import annotations

import time

import numpy as np

# Nominal seconds of one chunk. On the 2-vCPU host the bounds were set on,
# chunks took 0.056 to 0.091 s (quartiles; median 0.071 s).
REFERENCE_S = 0.08
CHUNK_ITERATIONS = 800
_DIM, _PICK, _LOOP = 128, 8, 20


class HostSpeed:
    """Times chunks of a fixed kernel; see the module docstring."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
        self.x = rng.standard_normal(_DIM) + 0j

    def chunk(self) -> float:
        """Run one chunk of the kernel and return its wall seconds."""
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(CHUNK_ITERATIONS):
            y = self.A @ self.x
            z = np.fft.fft(y)
            pick = np.argsort(np.abs(z))[:_PICK]
            sol = np.linalg.lstsq(self.A[:, pick], y, rcond=None)[0]
            total += float(np.vdot(sol, sol).real)
            for j in range(_LOOP):
                total += j * 0.5
        return time.perf_counter() - t0


def rescale(walls, chunks) -> list[float]:
    """Wall times at the nominal host speed. ``chunks[i]`` was timed just
    before ``walls[i]`` and ``chunks[i + 1]`` just after it."""
    if len(chunks) != len(walls) + 1:
        raise ValueError(f"{len(walls)} walls need {len(walls) + 1} chunks, got {len(chunks)}")
    return [wall * 2.0 * REFERENCE_S / (chunks[i] + chunks[i + 1])
            for i, wall in enumerate(walls)]
