"""Sparse-vector construction, codebook spreading and OFDM (de)modulation.

Transforms are unitary (1/sqrt(N) both ways) so that a noise sample has the
same variance in the time and frequency domains, and the spread block is
scaled by 1/sqrt(K) so each subcarrier carries unit average energy under
random +-1 codebook entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import require_pow2
from .index_codec import SparseMessage, symbol_rows


@dataclass(eq=False)
class SparseVector:
    """Length-M virtual-domain vector with exactly K unit-magnitude entries."""

    values: np.ndarray
    support: tuple[int, ...]  # 1-based active indices, ascending


def build_sparse_vector(msg: SparseMessage, m: int) -> SparseVector:
    """Place the constant symbols on the message's active indices.

    The sparsity K is the number of indices; ``msg.extended`` picks the
    symbol set (see :func:`symbol_rows`).
    """
    if any(i < 1 or i > m for i in msg.indices):
        raise ValueError(f"indices {msg.indices} outside [1, {m}]")
    symbols = symbol_rows(len(msg.indices))[int(msg.extended)]
    values = np.zeros(m, dtype=np.complex128)
    for k, idx in enumerate(msg.indices):
        values[idx - 1] = symbols[k]
    return SparseVector(values=values, support=msg.indices)


def spread(s: SparseVector, book: np.ndarray) -> np.ndarray:
    """Spread the sparse vector over all N subcarriers: (1/sqrt(K)) C s.

    Only the K active columns of C are multiplied, so the book is never
    cast to complex as a whole.
    """
    if book.ndim != 2:
        raise ValueError(f"book must be one 2-D codebook, got shape {book.shape}")
    if book.shape[1] != len(s.values):
        raise ValueError(f"codebook width {book.shape[1]} != sparse vector length {len(s.values)}")
    k = len(s.support)
    if k < 1:
        raise ValueError("sparse vector has empty support")
    idx = [i - 1 for i in s.support]
    return book.take(idx, axis=1).dot(s.values.take(idx)) / math.sqrt(k)


def ofdm_modulate(x_freq: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary IFFT plus cyclic prefix: the last cp_len samples are prepended."""
    x_freq = np.asarray(x_freq)
    n = len(x_freq)
    require_pow2(n, "N")
    if not 0 <= cp_len < n:
        raise ValueError(f"CP length {cp_len} outside [0, {n})")
    body = np.fft.ifft(x_freq) * math.sqrt(n)
    return np.concatenate([body[n - cp_len:], body])


def ofdm_demodulate(y_time: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the cyclic prefix and apply the unitary FFT."""
    y_time = np.asarray(y_time)
    n = len(y_time) - cp_len
    require_pow2(n, "N")
    if cp_len < 0 or cp_len >= n:
        raise ValueError(f"CP length {cp_len} inconsistent with frame of {len(y_time)}")
    return np.fft.fft(y_time[cp_len:]) / math.sqrt(n)
