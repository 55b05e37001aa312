"""Sparse-vector construction, codebook spreading and OFDM (de)modulation.

Transforms are unitary (1/sqrt(N) both ways) so that a noise sample has the
same variance in the time and frequency domains, and the spread block is
scaled by 1/sqrt(K) so each subcarrier carries unit average energy under
random +-1 codebook entries.
"""
from __future__ import annotations

import math
from itertools import pairwise

import numpy as np

from .codebook import require_array, require_pow2
from .index_codec import SparseMessage, symbol_rows


def build_sparse_vector(msg: SparseMessage, m: int) -> np.ndarray:
    """The length-m complex vector with the constant symbols on the
    message's active indices and zeros elsewhere.

    The sparsity K is the number of indices; ``msg.extended`` picks the
    symbol set (see :func:`symbol_rows`). Indices outside [1, m] or not
    strictly increasing are a ``ValueError`` naming them.
    """
    indices = msg.indices
    if any(i < 1 or i > m for i in indices):
        raise ValueError(f"indices {indices} outside [1, {m}]")
    if any(a >= b for a, b in pairwise(indices)):
        raise ValueError(f"indices {indices} must be strictly increasing")
    symbols = symbol_rows(len(indices))[int(msg.extended)]
    values = np.zeros(m, dtype=np.complex128)
    for k, i in enumerate(indices):
        values[i - 1] = symbols[k]
    return values


def spread(s: np.ndarray, book: np.ndarray) -> np.ndarray:
    """Spread the sparse vector over all N subcarriers: (1/sqrt(K)) C s,
    K being the number of nonzero entries of ``s``.

    Only the K active columns of C are multiplied, so the book is never
    cast to complex as a whole.
    """
    require_array(book, (None, None), "book")
    require_array(s, book.shape[1:], "s")
    idx = s.nonzero()[0]  # s is 1-D here
    if len(idx) == 0:
        raise ValueError("sparse vector has empty support")
    x_freq = book.take(idx, axis=1).dot(s.take(idx))
    x_freq /= math.sqrt(len(idx))
    return x_freq


def ofdm_modulate(x_freq: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary IFFT plus cyclic prefix: the last cp_len samples are prepended."""
    n = len(require_array(x_freq, (None,), "x_freq"))
    require_pow2(n, "N")
    if not 0 <= cp_len < n:
        raise ValueError(f"CP length {cp_len} outside [0, {n})")
    body = np.fft.ifft(x_freq)
    body *= math.sqrt(n)
    return np.concatenate((body[n - cp_len:], body))


def ofdm_demodulate(y_time: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the cyclic prefix and apply the unitary FFT."""
    n = len(require_array(y_time, (None,), "y_time")) - cp_len
    require_pow2(n, "N")
    if cp_len < 0 or cp_len >= n:
        raise ValueError(f"CP length {cp_len} inconsistent with frame of {len(y_time)}")
    x_freq = np.fft.fft(y_time[cp_len:])
    x_freq /= math.sqrt(n)
    return x_freq
