"""Generation of the shared Bernoulli spreading codebooks.

Each codebook is an N x M matrix of equiprobable +1/-1 entries. Book ``g``
is drawn from its own numpy PCG64 stream keyed by ``(seed, tag, g)`` via
``SeedSequence``, so its entries depend only on (seed, g, N, M) and not on
how many books the set holds; every process rebuilds the same books from the
seed. A set of G books is one read-only (G, N, M) float64 array; a book's
identity is its 1-based position g, and it is ``books[g - 1]``. Entries are
stored unnormalized; the 1/sqrt(K) energy scaling happens at spreading time so
books are reusable across sparsity settings.

The link's value rules live here, below every module that applies them:
the power-of-two rule, the lower-bound rule, the type rule of a record's
fields and the shape rule of an array argument.
"""
from __future__ import annotations

import functools
import typing
from dataclasses import fields

import numpy as np

# Leading word of the SeedSequence entropy tuple; keeps codebook streams
# disjoint from the frame/noise streams derived elsewhere from the same seed.
_BOOK_STREAM_TAG = 0xB00C

# What each field type takes; any other type takes its own instances. A
# float field keeps an int as it is, so the text written for it does not
# change; no number takes a bool.
_TAKES = {int: (int, np.integer), float: (int, float, np.integer, np.floating), bool: bool,
          str: str}


def require_pow2(n: int, name: str) -> None:
    """The one power-of-two rule of the link (N and G); the error names ``name``."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"{name} must be a power of two, got {n}")


def require_at_least(value, low, name: str):
    """``value`` when it is >= ``low``; anything else, NaN included, is a
    ``ValueError`` naming ``name``."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def require_type(value, tp: type, name: str):
    """``value`` as a field ``name`` of type ``tp`` stores it: a numpy scalar
    becomes the Python number it holds. A value the type does not take is a
    ``ValueError`` naming the field.

    A value of class exactly ``tp`` is taken after that one test: a frame
    meets this rule once per codec bit and once per rank index."""
    if value.__class__ is tp:
        return value
    if not isinstance(value, _TAKES.get(tp, tp)) or (isinstance(value, bool) and tp is not bool):
        raise ValueError(f"{name} must be {tp.__name__}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def require_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` when it is an ndarray of ``shape``, where a ``None`` entry
    takes any length. Anything else, a list or a numpy scalar included, is a
    ``ValueError`` naming ``name``."""
    if isinstance(value, np.ndarray):
        got = value.shape
        if len(got) == len(shape):
            i = 0  # an index, not zip's tuples (about 0.2 us more): this runs on every frame
            for want in shape:
                if want is not None and want != got[i]:
                    break
                i += 1
            else:
                return value
    else:
        got = type(value).__name__
    want = ", ".join("*" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
    raise ValueError(f"{name} must be an array of shape ({want}), got {got}")


@functools.cache
def field_types(cls) -> dict[str, type]:
    """Name -> type of each dataclass field of ``cls`` that ``__init__`` takes, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def require_field_types(record) -> None:
    """Store each field of the frozen dataclass ``record`` by :func:`require_type`."""
    for name, tp in field_types(type(record)).items():
        object.__setattr__(record, name, require_type(getattr(record, name), tp, name))


def generate_set(seed: int, G: int, n: int, m: int) -> np.ndarray:
    """The G books as one read-only (G, n, m) array; book g is ``books[g - 1]``."""
    require_pow2(G, "G")
    for value, name in ((n, "n"), (m, "m")):
        require_at_least(require_type(value, int, name), 1, name)
    books = np.empty((G, n, m))
    for g, book in enumerate(books, start=1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOK_STREAM_TAG, g)))
        np.multiply(rng.integers(0, 2, size=(n, m)), 2.0, out=book)
        book -= 1.0
    books.setflags(write=False)
    return books

