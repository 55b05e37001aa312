"""Codebook generation: determinism, entry statistics, set invariants, coherence."""
import numpy as np
import pytest

from svcim.codebook import (
    Codebook,
    CodebookSet,
    column_coherence,
    generate_codebook,
    generate_set,
    require_pow2,
)
from svcim.link import SystemConfig
from svcim.transceiver import ofdm_demodulate, ofdm_modulate


class TestPowerOfTwo:
    """``require_pow2`` is the one power-of-two rule; each caller names its field."""

    CALLERS = {
        "SystemConfig.N": ("N", lambda n: SystemConfig(N=n)),
        "SystemConfig.G": ("G", lambda n: SystemConfig(scheme="secbim", G=n)),
        "CodebookSet": ("G", lambda n: CodebookSet(tuple(Codebook(np.ones((2, 2)))
                                                          for _ in range(n)))),
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


class TestGeneration:
    def test_single_book_deterministic(self):
        a = generate_set(seed=1234, G=1, n=4, m=4)
        b = generate_set(seed=1234, G=1, n=4, m=4)
        assert np.array_equal(a[1].entries, b[1].entries)
        assert set(np.unique(a[1].entries)) <= {-1.0, 1.0}

    def test_entries_balanced(self):
        # binomial std of the mean is 1/sqrt(N*M) = 1/128; 0.05 is > 5 sigma
        book = generate_codebook(seed=9, book_id=1, n=128, m=128)
        assert abs(book.entries.mean()) < 0.05

    def test_books_distinct(self):
        cbs = generate_set(seed=5, G=4, n=16, m=16)
        assert not np.array_equal(cbs[1].entries, cbs[2].entries)

    def test_book_independent_of_set_size(self):
        small = generate_set(seed=11, G=2, n=8, m=8)
        large = generate_set(seed=11, G=8, n=8, m=8)
        for g in (1, 2):
            assert np.array_equal(small[g].entries, large[g].entries)

    def test_g_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            generate_set(seed=0, G=3, n=4, m=4)
        with pytest.raises(ValueError):
            generate_set(seed=0, G=0, n=4, m=4)

    def test_entries_frozen(self):
        book = generate_codebook(seed=0, book_id=1, n=4, m=4)
        with pytest.raises(ValueError):
            book.entries[0, 0] = -book.entries[0, 0]

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            Codebook(entries=np.zeros((2, 2)))

    def test_set_index_bounds(self):
        cbs = generate_set(seed=0, G=2, n=4, m=4)
        with pytest.raises(ValueError):
            cbs[0]
        with pytest.raises(ValueError):
            cbs[3]

    def test_set_invariants(self):
        b1 = generate_codebook(0, 1, 4, 4)
        b2 = generate_codebook(0, 2, 8, 4)  # different shape
        with pytest.raises(ValueError):
            CodebookSet(books=(b1, b2))


class TestCoherence:
    def test_orthogonal_columns(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert column_coherence(Codebook(entries=hadamard)) == 0.0

    def test_duplicate_columns(self):
        dup = np.ones((4, 3))
        assert column_coherence(Codebook(entries=dup)) == 1.0

    def test_single_column(self):
        one = np.ones((4, 1))
        assert column_coherence(Codebook(entries=one)) == 0.0

    def test_taller_books_less_coherent(self):
        # direct computation, 20 seeds: more rows decorrelate the columns
        short = np.mean(
            [column_coherence(generate_codebook(s, 1, 32, 128)) for s in range(20)]
        )
        tall = np.mean(
            [column_coherence(generate_codebook(s, 1, 512, 128)) for s in range(20)]
        )
        assert short > tall

    def test_mean_coherence_monotone_in_rows(self):
        means = []
        for n in (32, 64, 128, 256, 512):
            means.append(
                np.mean([column_coherence(generate_codebook(s, 1, n, 128)) for s in range(20)])
            )
        assert all(a >= b for a, b in zip(means, means[1:]))
