"""Frequency-selective Rayleigh fading and AWGN.

Two equivalent paths are provided: the fast per-subcarrier model
(element-wise multiply by the channel frequency response plus noise) and
the literal time-domain model (tap convolution across the CP-extended
frame). With unitary OFDM transforms and v <= L they agree exactly, which
the test suite checks to 1e-9.

Noise is injected per complex sample with variance n0 = Eb * 10^(-EbN0/10),
Eb = (N+L)/m (``SystemConfig.n0``), identically in both domains; the CP
energy penalty is thereby part of the SNR accounting, and n0 = 0 is
noiseless; a NaN, infinite or negative n0 is a ``ValueError`` naming n0.
Taps follow a uniform power-delay profile, i.i.d. CN(0, 1/v), so the
frequency response is CN(0, 1) per subcarrier.
"""
from __future__ import annotations

import math

import numpy as np

from .codebook import require_array


def draw_channel(v: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one block-fading realization with v i.i.d. CN(0, 1/v) taps.

    Returns ``(taps, h_freq)``: the length-v complex taps and the length-n
    unnormalized DFT of the zero-padded taps.
    """
    if not 1 <= v <= n:
        raise ValueError(f"tap count {v} outside [1, {n}]")
    taps = _complex_normal(v, math.sqrt(0.5 / v), rng)
    return taps, np.fft.fft(taps, n)


def _complex_normal(n: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """n complex samples ``(re + 1j * im) * scale``, byte for byte, where
    ``re, im = rng.standard_normal((2, n))``: the draws are scaled in place
    and interleaved into one complex array."""
    draws = rng.standard_normal((2, n))
    draws *= scale
    return draws.T.copy().view(np.complex128).ravel()


def _awgn(n_samples: int, n0: float, rng: np.random.Generator) -> np.ndarray:
    """A fresh complex array of CN(0, n0) noise; the channel output is added into it."""
    if not 0.0 <= n0 < math.inf:  # NaN fails too
        raise ValueError(f"n0 (noise variance) must be finite and >= 0, got {n0}")
    if n0 == 0.0:
        return np.zeros(n_samples, dtype=np.complex128)
    return _complex_normal(n_samples, math.sqrt(n0 / 2.0), rng)


def apply_freq(
    x_freq: np.ndarray, h_freq: np.ndarray, n0: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-subcarrier model: y(b) = x(b) h(b) + w(b), x and h vectors of one length."""
    require_array(h_freq, require_array(x_freq, (None,), "x_freq").shape, "h_freq")
    y = _awgn(len(x_freq), n0, rng)
    y += x_freq * h_freq
    return y


def apply_time(
    x_time: np.ndarray,
    taps: np.ndarray,
    n0: float,
    rng: np.random.Generator,
    cp_len: int,
) -> np.ndarray:
    """Tap convolution over the CP-extended frame, truncated to frame length.

    Requires v <= L; otherwise the tail of one block would spill past the
    prefix and the per-subcarrier model would no longer hold.
    """
    require_array(x_time, (None,), "x_time")
    if len(require_array(taps, (None,), "taps")) > cp_len:
        raise ValueError(f"tap count {len(taps)} exceeds CP length {cp_len}")
    y = _awgn(len(x_time), n0, rng)
    y += np.convolve(x_time, taps)[: len(x_time)]
    return y
