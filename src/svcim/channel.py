"""Frequency-selective Rayleigh fading and AWGN.

Two equivalent paths are provided: the fast per-subcarrier model
(element-wise multiply by the channel frequency response plus noise) and
the literal time-domain model (tap convolution across the CP-extended
frame). With unitary OFDM transforms and v <= L they agree exactly, which
the test suite checks to 1e-9.

Noise is injected per complex sample with variance n0 = Eb * 10^(-EbN0/10),
Eb = (N+L)/m (``SystemConfig.n0``), identically in both domains; the CP
energy penalty is thereby part of the SNR accounting, and n0 = 0 is
noiseless. Taps follow a uniform power-delay profile,
i.i.d. CN(0, 1/v), so the frequency response is CN(0, 1) per subcarrier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class ChannelRealization:
    """Time-domain taps and the derived N-point frequency response."""

    cir: np.ndarray  # length-v complex taps
    cfr: np.ndarray  # length-N unnormalized DFT of the zero-padded taps

    @property
    def v(self) -> int:
        return len(self.cir)


def draw_channel(v: int, n: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw one block-fading realization with v i.i.d. CN(0, 1/v) taps."""
    if not 1 <= v <= n:
        raise ValueError(f"tap count {v} outside [1, {n}]")
    re, im = rng.standard_normal((2, v))
    cir = (re + 1j * im) * math.sqrt(0.5 / v)
    return ChannelRealization(cir=cir, cfr=np.fft.fft(cir, n))


def _awgn(n_samples: int, n0: float, rng: np.random.Generator) -> np.ndarray:
    if n0 == 0.0:
        return np.zeros(n_samples, dtype=np.complex128)
    re, im = rng.standard_normal((2, n_samples))
    return (re + 1j * im) * math.sqrt(n0 / 2.0)


def apply_freq(
    x_freq: np.ndarray, ch: ChannelRealization, n0: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-subcarrier model: y(b) = x(b) h(b) + w(b)."""
    x_freq = np.asarray(x_freq)
    if len(x_freq) != len(ch.cfr):
        raise ValueError(f"block length {len(x_freq)} != channel length {len(ch.cfr)}")
    return x_freq * ch.cfr + _awgn(len(x_freq), n0, rng)


def apply_time(
    x_time: np.ndarray,
    ch: ChannelRealization,
    n0: float,
    rng: np.random.Generator,
    cp_len: int,
) -> np.ndarray:
    """Tap convolution over the CP-extended frame, truncated to frame length.

    Requires v <= L; otherwise the tail of one block would spill past the
    prefix and the per-subcarrier model would no longer hold.
    """
    x_time = np.asarray(x_time)
    if ch.v > cp_len:
        raise ValueError(f"tap count {ch.v} exceeds CP length {cp_len}")
    faded = np.convolve(x_time, ch.cir)[: len(x_time)]
    return faded + _awgn(len(x_time), n0, rng)
