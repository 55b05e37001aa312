"""Book generation: determinism, entry statistics, the set array, coherence."""
import enum
import re

import numpy as np
import pytest

from svcim.codebook import (
    generate_set,
    require_array,
    require_at_least,
    require_pow2,
    require_type,
)
from svcim.index_codec import ApSpace
from svcim.link import LinkContext, SystemConfig
from svcim.transceiver import ofdm_demodulate, ofdm_modulate

from oracles import column_coherence


class TestPowerOfTwo:
    """``require_pow2`` is the one power-of-two rule; each caller names its field."""

    CALLERS = {
        "SystemConfig.N": ("N", lambda n: SystemConfig(N=n)),
        "SystemConfig.G": ("G", lambda n: SystemConfig(scheme="secbim", G=n)),
        "generate_set": ("G", lambda n: generate_set(seed=0, G=n, n=2, m=2)),
        "ofdm_modulate": ("N", lambda n: ofdm_modulate(np.zeros(n, complex), 0)),
        "ofdm_demodulate": ("N", lambda n: ofdm_demodulate(np.zeros(n, complex), 0)),
    }

    @pytest.mark.parametrize("n", [0, 3, 48])
    @pytest.mark.parametrize("caller", CALLERS)
    def test_callers_reject_and_name_the_field(self, caller, n):
        name, call = self.CALLERS[caller]
        with pytest.raises(ValueError, match=f"^{name} must be a power of two, got {n}$"):
            call(n)

    @pytest.mark.parametrize("n", [1, 2, 64, 1 << 40])
    def test_powers_of_two_pass(self, n):
        require_pow2(n, "N")


class TestLowerBound:
    """``require_at_least`` is the one lower-bound rule; each caller names its field."""

    @pytest.mark.parametrize("value,low", [(1, 1), (7, 1), (0, 0), (0.0, 0), (1e300, 0)])
    def test_value_at_or_above_returned_as_is(self, value, low):
        assert require_at_least(value, low, "x") is value

    @pytest.mark.parametrize("value,low", [(0, 1), (-1, 0), (-0.5, 0), (float("nan"), 0)])
    def test_below_or_nan_named(self, value, low):
        with pytest.raises(ValueError, match=f"^x must be >= {low}, got {value}$"):
            require_at_least(value, low, "x")

    @pytest.mark.parametrize("n,m,message", [
        (0, 8, "n must be >= 1, got 0"), (8, -1, "m must be >= 1, got -1"),
        (8.0, 8, "n must be int, got 8.0"), (8, True, "m must be int, got True"),
    ])
    def test_generate_set_dimensions_named(self, n, m, message):
        # each dimension is named, and an int by the type rule: a float is not taken
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_set(0, 1, n, m)


class _Level(enum.IntEnum):
    LOW = 1


class TestFieldType:
    """``require_type``: a value of class exactly the field type is taken
    after one test; every other value meets the full rule, and the result
    is the same as if the shortcut were not there."""

    SPACE = ApSpace(M=8, K=2)

    # value, field type, what comes back (value and class)
    TAKEN = [
        (3, int, 3, int), (0.5, float, 0.5, float), (True, bool, True, bool), ("a", str, "a", str),
        (SPACE, ApSpace, SPACE, ApSpace),
        (np.int64(3), int, 3, int), (np.uint8(1), int, 1, int),
        (np.float64(0.5), float, 0.5, float), (np.int64(2), float, 2, int),
        (4, float, 4, int), (_Level.LOW, int, _Level.LOW, _Level),
    ]

    @pytest.mark.parametrize("value,tp,want,cls", TAKEN, ids=[
        "int", "float", "bool", "str", "ApSpace", "int64-as-int", "uint8-as-int",
        "float64-as-float", "int64-as-float", "int-as-float", "IntEnum-as-int"])
    def test_taken(self, value, tp, want, cls):
        got = require_type(value, tp, "x")
        assert got == want and got.__class__ is cls
        if cls is value.__class__:  # an exact instance comes back as the same object
            assert got is value

    @pytest.mark.parametrize("value,tp,name", [
        (True, int, "n"), (np.bool_(True), int, "n"), (1.9, int, "n"), (np.float64(2.0), int, "n"),
        ("1", int, "bit"), (True, float, "x"), (1, bool, "flag"), ("no", bool, "flag"),
        (1, str, "s"), (None, int, "n"), (SPACE, SystemConfig, "base"),
    ], ids=["bool-as-int", "numpy-bool-as-int", "float-as-int", "float64-as-int", "str-as-bit",
            "bool-as-float", "int-as-bool", "str-as-bool", "int-as-str", "None-as-int",
            "space-as-config"])
    def test_rejected_by_name(self, value, tp, name):
        with pytest.raises(ValueError, match=f"^{name} must be {tp.__name__}, got {re.escape(repr(value))}$"):
            require_type(value, tp, name)


class TestArrayShape:
    """``require_array`` is the one shape rule of the link's array arguments."""

    @pytest.mark.parametrize("shape", [(3, 4), (None, 4), (3, None), (None, None)])
    def test_matching_array_returned_as_is(self, shape):
        value = np.zeros((3, 4))
        assert require_array(value, shape, "x") is value

    @pytest.mark.parametrize("value,shape,message", [
        (np.zeros((1, 32, 32)), (None, 32), r"^books must be an array of shape \(\*, 32\), got \(1, 32, 32\)$"),
        (np.zeros(5), (4,), r"^books must be an array of shape \(4,\), got \(5,\)$"),
        (np.zeros((4, 3)), (None, 4), r"^books must be an array of shape \(\*, 4\), got \(4, 3\)$"),
        (np.zeros(()), (None,), r"^books must be an array of shape \(\*,\), got \(\)$"),
        ([[1.0] * 32], (None, 32), r"^books must be an array of shape \(\*, 32\), got list$"),
        (np.float64(1.0), (None,), r"^books must be an array of shape \(\*,\), got float64$"),
        (None, (None,), r"^books must be an array of shape \(\*,\), got NoneType$"),
    ], ids=["extra-axis", "length", "width", "0-d", "list", "numpy-scalar", "None"])
    def test_anything_else_named(self, value, shape, message):
        with pytest.raises(ValueError, match=message):
            require_array(value, shape, "books")


class TestGeneration:
    def test_single_book_deterministic(self):
        a = generate_set(seed=1234, G=1, n=4, m=4)
        b = generate_set(seed=1234, G=1, n=4, m=4)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_entries_balanced(self):
        # binomial std of the mean is 1/sqrt(N*M) = 1/128; 0.05 is > 5 sigma
        book = generate_set(seed=9, G=1, n=128, m=128)[0]
        assert abs(book.mean()) < 0.05

    def test_books_distinct(self):
        cbs = generate_set(seed=5, G=4, n=16, m=16)
        assert not np.array_equal(cbs[0], cbs[1])

    def test_book_independent_of_set_size(self):
        small = generate_set(seed=11, G=2, n=8, m=8)
        large = generate_set(seed=11, G=8, n=8, m=8)
        assert np.array_equal(small, large[:2])

    def test_g_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            generate_set(seed=0, G=3, n=4, m=4)
        with pytest.raises(ValueError):
            generate_set(seed=0, G=0, n=4, m=4)

    def test_entries_frozen(self):
        book = generate_set(seed=0, G=1, n=4, m=4)[0]
        with pytest.raises(ValueError):
            book[0, 0] = -book[0, 0]

    def test_set_is_one_frozen_array(self):
        books = generate_set(seed=0, G=2, n=4, m=4)
        assert books.shape == (2, 4, 4) and books.dtype == np.float64
        with pytest.raises(ValueError):
            books[1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            books[0][0, 0] = 1.0

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_book_g_is_row_g_minus_one(self, g):
        books = generate_set(seed=3, G=4, n=8, m=4)
        assert np.array_equal(books[g - 1], generate_set(3, 8, 8, 4)[g - 1])

    def test_iterates_over_its_books(self):
        ctx = LinkContext.for_config(SystemConfig(scheme="secbim", G=2, N=32, M=16))
        books = list(ctx.books)
        assert len(books) == 2
        assert all(book.shape == (32, 16) for book in books)


class TestCoherence:
    def test_orthogonal_columns(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert column_coherence(hadamard) == 0.0

    def test_duplicate_columns(self):
        dup = np.ones((4, 3))
        assert column_coherence(dup) == 1.0

    def test_single_column(self):
        one = np.ones((4, 1))
        assert column_coherence(one) == 0.0

    def test_taller_books_less_coherent(self):
        # direct computation, 20 seeds: more rows decorrelate the columns
        short = np.mean(
            [column_coherence(generate_set(s, 1, 32, 128)[0]) for s in range(20)]
        )
        tall = np.mean(
            [column_coherence(generate_set(s, 1, 512, 128)[0]) for s in range(20)]
        )
        assert short > tall

    def test_mean_coherence_monotone_in_rows(self):
        means = []
        for n in (32, 64, 128, 256, 512):
            means.append(
                np.mean([column_coherence(generate_set(s, 1, n, 128)[0]) for s in range(20)])
            )
        assert all(a >= b for a, b in zip(means, means[1:]))
