"""Bit mapping between information words and sparse activation patterns.

A word of ``m`` bits selects one of the K-of-M activation patterns in the
virtual digital domain. Patterns are ranked with the combinatorial number
system (colexicographic order), and the leftover words beyond C(M, K) - 1
are folded back onto the lowest-ranked patterns by switching to a second,
"extended" set of constant symbols. Every m-bit word therefore maps to a
legal pattern and one extra bit is carried compared to plain truncation.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import pairwise
from math import comb

import numpy as np

from .codebook import require_at_least, require_field_types, require_type


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """MSB-first binary expansion of ``value`` into exactly ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits) -> int:
    """Decimal value of an MSB-first bit word; each bit is an int (a numpy
    integer included) by the type rule, so a bool, a float or a string is
    rejected by name."""
    out = 0
    for b in bits:
        b = require_type(b, int, "bit")
        if b not in (0, 1):
            raise ValueError(f"bit word contains non-binary entry {b!r}")
        out = (out << 1) | b
    return out


@dataclass(frozen=True)
class ApSpace:
    """Dimensioning of the K-of-M activation-pattern space.

    M is the virtual-domain length, K the number of active indices; each
    takes an int by the type rule (:func:`~svcim.codebook.require_type`). All
    derived sizes are exact integers (Python bignums), so no configuration
    can silently overflow. They are computed once, when the space is built,
    because the codec reads them on every frame.
    """

    M: int
    K: int
    # Total number of activation patterns, C(M, K).
    n_combos: int = field(init=False, repr=False, compare=False)
    # Word length with reuse: one bit more than floor(log2 C(M, K)).
    m_bits: int = field(init=False, repr=False, compare=False)
    # How many low-ranked patterns also serve the extended symbol set.
    n_reused: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_field_types(self)
        require_at_least(self.K, 1, "K")
        if self.K >= self.M:
            raise ValueError(f"K must be < M, got K={self.K}, M={self.M}")
        n_combos = comb(self.M, self.K)  # >= M >= 2 for 1 <= K < M
        m_bits = n_combos.bit_length()
        object.__setattr__(self, "n_combos", n_combos)
        object.__setattr__(self, "m_bits", m_bits)
        object.__setattr__(self, "n_reused", (1 << m_bits) - n_combos)


@dataclass(frozen=True)
class SparseMessage:
    """One encoded virtual-domain word.

    ``indices`` are the active positions (1-based, strictly increasing),
    ``extended`` says which constant symbol set rides on them, ``d`` is the
    pattern's rank and ``g`` the spreading-codebook index (1 when a single
    codebook is in use).
    """

    indices: tuple[int, ...]
    extended: bool
    d: int
    g: int = 1


@functools.cache
def symbol_rows(k: int) -> np.ndarray:
    """The two constant symbol sets for sparsity ``k``, as one read-only (2, k) array.

    Row 0, the original set, alternates (1, j, 1, j, ...); row 1, the
    extended set, is its negation, so the rows differ in every entry and
    every entry has unit magnitude. One array per k serves every caller.
    """
    original = np.resize(np.array([1, 1j]), k)
    rows = np.array([original, -original])
    rows.setflags(write=False)
    return rows


def rank_to_combo(d: int, space: ApSpace) -> tuple[int, ...]:
    """Unrank ``d`` into the d-th K-combination of {1..M}.

    Uses the combinatorial number system: d = sum_k C(c_k, k) over the
    zero-based positions c_1 < ... < c_K, which orders combinations
    colexicographically. Each c_k is the largest c with C(c, k) <= the
    remaining rank, found by bisection below c_(k+1) (below M for c_K), so
    a call makes O(K log M) binomial evaluations. Returns 1-based, strictly
    increasing indices.
    """
    if not 0 <= d < space.n_combos:
        raise ValueError(f"rank {d} outside [0, {space.n_combos - 1}]")
    out = []
    x = d
    hi = space.M
    for k in range(space.K, 0, -1):
        # invariant: C(lo, k) = below <= x < C(hi, k)
        lo, below = k - 1, 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            value = comb(mid, k)
            if value <= x:
                lo, below = mid, value
            else:
                hi = mid
        out.append(lo + 1)
        x -= below
        hi = lo
    out.reverse()
    return tuple(out)


def combo_to_rank(indices, space: ApSpace) -> int:
    """Rank of a K-combination; exact inverse of :func:`rank_to_combo`. Each
    index is an int by the type rule."""
    idx = tuple(require_type(i, int, "index") for i in indices)
    if len(idx) != space.K:
        raise ValueError(f"expected {space.K} indices, got {len(idx)}")
    if any(i < 1 or i > space.M for i in idx):
        raise ValueError(f"indices {idx} outside [1, {space.M}]")
    if any(a >= b for a, b in pairwise(idx)):
        raise ValueError(f"indices {idx} must be strictly increasing")
    return sum(comb(i - 1, k) for k, i in enumerate(idx, start=1))


def encode_bits(bits, space: ApSpace, g: int = 1) -> SparseMessage:
    """Map an m-bit word to its activation pattern and symbol-set flag.

    Words whose decimal value fits below C(M, K) use the original symbol
    set; the remainder reuse the lowest-ranked patterns with the extended
    set, so no word is ever wasted on an illegal pattern. ``g`` is the
    codebook the word is spread with; it does not enter the mapping.
    """
    bits = tuple(bits)  # any iterable of bits; bits_to_int checks each one
    if len(bits) != space.m_bits:
        raise ValueError(f"expected {space.m_bits}-bit word, got {len(bits)} bits")
    value = bits_to_int(bits)
    extended = value >= space.n_combos
    d = value - space.n_combos if extended else value
    return SparseMessage(indices=rank_to_combo(d, space), extended=extended, d=d, g=g)


def decode_to_bits(d_hat: int, extended: bool, space: ApSpace) -> tuple[int, ...]:
    """Invert :func:`encode_bits` from a detected rank and symbol-set flag.

    Ranks at or above ``n_reused`` are never reused, so the flag is ignored
    there and the rank converts to bits directly.
    """
    if not 0 <= d_hat < space.n_combos:
        raise ValueError(f"rank {d_hat} outside [0, {space.n_combos - 1}]")
    if not extended or d_hat >= space.n_reused:
        value = d_hat
    else:
        value = d_hat + space.n_combos
    return int_to_bits(value, space.m_bits)
