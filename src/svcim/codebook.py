"""Generation of the shared Bernoulli spreading codebooks.

Each codebook is an N x M matrix of equiprobable +1/-1 entries. Book ``g``
is drawn from its own numpy PCG64 stream keyed by ``(seed, tag, g)`` via
``SeedSequence``, so its entries depend only on (seed, g, N, M) and not on
how many books the set holds; every process rebuilds the same books from the
seed. A book's identity is its 1-based position g in its set. Entries are
stored unnormalized; the 1/sqrt(K) energy scaling happens at spreading time so
books are reusable across sparsity settings.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Leading word of the SeedSequence entropy tuple; keeps codebook streams
# disjoint from the frame/noise streams derived elsewhere from the same seed.
_BOOK_STREAM_TAG = 0xB00C


def require_pow2(n: int, name: str) -> None:
    """The one power-of-two rule of the link (N and G); the error names ``name``."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"{name} must be a power of two, got {n}")


@dataclass(eq=False)
class Codebook:
    """One immutable N x M spreading matrix of +1/-1 entries."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ValueError("codebook entries must be a 2-D matrix")
        if not np.all(np.abs(self.entries) == 1.0):
            raise ValueError("codebook entries must be exactly +1 or -1")
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]


@dataclass(eq=False)
class CodebookSet:
    """The G predefined books shared by transmitter and receiver."""

    books: tuple[Codebook, ...]
    G: int = field(init=False)

    def __post_init__(self) -> None:
        self.G = len(self.books)
        require_pow2(self.G, "G")
        shapes = {b.entries.shape for b in self.books}
        if len(shapes) != 1:
            raise ValueError("all books in a set must share N and M")

    def __getitem__(self, g: int) -> Codebook:
        """Book lookup by 1-based index g."""
        if not 1 <= g <= self.G:
            raise ValueError(f"book index {g} outside [1, {self.G}]")
        return self.books[g - 1]


def generate_codebook(seed: int, book_id: int, n: int, m: int) -> Codebook:
    """Deterministically draw book ``book_id``; independent of the set size."""
    if n < 1 or m < 1:
        raise ValueError("codebook dimensions must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOK_STREAM_TAG, book_id)))
    return Codebook(rng.integers(0, 2, size=(n, m)).astype(np.float64) * 2.0 - 1.0)


def generate_set(seed: int, G: int, n: int, m: int) -> CodebookSet:
    """Generate the full set of G books at positions 1..G."""
    return CodebookSet(books=tuple(generate_codebook(seed, g, n, m) for g in range(1, G + 1)))


def column_coherence(book: Codebook) -> float:
    """Largest normalized inner product between distinct columns, in [0, 1].

    Low coherence is what lets greedy recovery tell activation patterns
    apart; it shrinks as N grows for fixed M.
    """
    c = book.entries
    if c.shape[1] < 2:
        return 0.0
    gram = np.abs(c.T @ c) / c.shape[0]
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())
