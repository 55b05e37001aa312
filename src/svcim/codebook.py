"""Generation of the shared Bernoulli spreading codebooks.

Each codebook is an N x M matrix of equiprobable +1/-1 entries. Book ``g``
is drawn from its own numpy PCG64 stream keyed by ``(seed, tag, g)`` via
``SeedSequence``, so its entries depend only on (seed, g, N, M) and not on
how many books the set holds; every process rebuilds the same books from the
seed. A set of G books is one read-only (G, N, M) float64 array; a book's
identity is its 1-based position g, and it is ``books[g - 1]``. Entries are
stored unnormalized; the 1/sqrt(K) energy scaling happens at spreading time so
books are reusable across sparsity settings.
"""
from __future__ import annotations

import numpy as np

# Leading word of the SeedSequence entropy tuple; keeps codebook streams
# disjoint from the frame/noise streams derived elsewhere from the same seed.
_BOOK_STREAM_TAG = 0xB00C


def require_pow2(n: int, name: str) -> None:
    """The one power-of-two rule of the link (N and G); the error names ``name``."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"{name} must be a power of two, got {n}")


def generate_set(seed: int, G: int, n: int, m: int) -> np.ndarray:
    """The G books as one read-only (G, n, m) array; book g is ``books[g - 1]``."""
    require_pow2(G, "G")
    if n < 1 or m < 1:
        raise ValueError("codebook dimensions must be positive")
    books = np.empty((G, n, m))
    for g, book in enumerate(books, start=1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOK_STREAM_TAG, g)))
        np.multiply(rng.integers(0, 2, size=(n, m)), 2.0, out=book)
        book -= 1.0
    books.setflags(write=False)
    return books


def column_coherence(book: np.ndarray) -> float:
    """Largest normalized inner product between distinct columns, in [0, 1].

    Low coherence is what lets greedy recovery tell activation patterns
    apart; it shrinks as N grows for fixed M.
    """
    c = np.asarray(book)
    if c.shape[1] < 2:
        return 0.0
    gram = np.abs(c.T @ c) / c.shape[0]
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())
