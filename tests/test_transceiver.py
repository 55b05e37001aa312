"""Spreading and OFDM framing: hand examples, unitarity, energy accounting."""
import math
import re

import numpy as np
import pytest

from svcim.codebook import generate_set
from svcim.index_codec import ApSpace, SparseMessage, encode_bits, int_to_bits
from svcim.transceiver import build_sparse_vector, ofdm_demodulate, ofdm_modulate, spread


class TestBuildSparseVector:
    def test_reference_rows(self):
        s = build_sparse_vector(SparseMessage((1, 2), False, 0), 4)
        assert np.array_equal(s, np.array([1, 1j, 0, 0]))
        assert s.dtype == np.complex128 and s.flags.writeable
        s = build_sparse_vector(SparseMessage((1, 3), True, 1), 4)
        assert np.array_equal(s, np.array([-1, 0, -1j, 0]))
        s = build_sparse_vector(SparseMessage((3, 4), False, 5), 4)
        assert np.array_equal(s, np.array([0, 0, 1, 1j]))

    def test_sparsity_and_magnitudes(self):
        space = ApSpace(M=16, K=2)
        for value in range(2 ** space.m_bits):
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            s = build_sparse_vector(msg, 16)
            nz = np.flatnonzero(s)
            assert len(nz) == 2
            assert tuple(nz + 1) == msg.indices
            assert np.allclose(np.abs(s[nz]), 1.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            build_sparse_vector(SparseMessage((1, 5), False, 0), 4)

    @pytest.mark.parametrize("indices", [(2, 2), (3, 1)], ids=["repeated", "decreasing"])
    def test_indices_not_strictly_increasing_named(self, indices):
        # (2, 2) would build a 1-sparse vector, which spread scales by 1/sqrt(1), not 1/sqrt(2)
        message = re.escape(f"indices {indices} must be strictly increasing")
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_sparse_vector(SparseMessage(indices, False, 0), 4)


class TestSpread:
    def test_rejects_a_whole_set_by_name(self):
        books = generate_set(3, 2, 32, 32)
        s = build_sparse_vector(SparseMessage((1, 2), False, 0), 32)
        # the whole (G, N, M) set in place of one book names the book
        with pytest.raises(ValueError, match=r"^book must be an array of shape \(\*, \*\), "
                                             r"got \(2, 32, 32\)$"):
            spread(s, books)
        assert spread(s, books[1]).shape == (32,)

    def test_unit_vector_selects_column(self):
        book = generate_set(seed=3, G=1, n=8, m=4)[0]
        e1 = np.eye(4, dtype=complex)[0]
        assert np.allclose(spread(e1, book), book[:, 0])

    def test_hand_computation_all_ones_book(self):
        book = np.ones((2, 2))
        s = np.array([1, 1j])
        expected = np.array([(1 + 1j), (1 + 1j)]) / math.sqrt(2)
        assert np.allclose(spread(s, book), expected)

    def test_dimension_mismatch(self):
        book = generate_set(seed=3, G=1, n=8, m=4)[0]
        s = np.zeros(5, complex)
        s[0] = 1
        s[1] = 1j
        with pytest.raises(ValueError, match=r"^s must be an array of shape \(4,\), got \(5,\)$"):
            spread(s, book)

    def test_lists_named(self):
        book = generate_set(seed=3, G=1, n=8, m=4)[0]
        s = np.array([1, 1j, 0, 0])
        with pytest.raises(ValueError, match=r"^s must be an array of shape \(4,\), got list$"):
            spread(s.tolist(), book)
        with pytest.raises(ValueError, match=r"^book must be an array of shape \(\*, \*\), got list$"):
            spread(s, book.tolist())

    def test_empty_support_rejected(self):
        book = generate_set(seed=3, G=1, n=8, m=4)[0]
        with pytest.raises(ValueError, match="empty support"):
            spread(np.zeros(4, complex), book)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gather_equals_dense_product(self, k):
        # spreading only the K active columns gives the dense product's
        # bytes, signed zeros included, on both symbol sets
        space = ApSpace(M=128, K=k)
        rng = np.random.default_rng(k)
        for i in range(4000):
            if i % 200 == 0:
                book = generate_set(int(rng.integers(0, 2**31)), 1, 128, 128)[0]
            value = int(rng.integers(0, 2 ** space.m_bits))
            s = build_sparse_vector(encode_bits(int_to_bits(value, space.m_bits), space), 128)
            dense = (book @ s) / math.sqrt(k)
            assert spread(s, book).tobytes() == dense.tobytes()

    def test_energy_over_random_books(self):
        # Monte Carlo oracle: E||spread||^2 = N for unit symbols and +-1 entries
        s = build_sparse_vector(SparseMessage((3, 17), False, 0), 64)
        energies = [
            np.sum(np.abs(spread(s, generate_set(seed, 1, 64, 64)[0])) ** 2)
            for seed in range(1000)
        ]
        assert abs(np.mean(energies) - 64.0) < 6.4

    def test_linearity(self):
        book = generate_set(seed=8, G=1, n=16, m=8)[0]
        rng = np.random.default_rng(0)
        v1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v1[2:] = v2[2:] = 0  # one support of two entries
        a, b = 0.7 - 0.2j, -1.1 + 0.5j
        combo = a * v1 + b * v2
        assert np.allclose(spread(combo, book), a * spread(v1, book) + b * spread(v2, book))

    def test_per_subcarrier_energy_convention(self):
        # average |x(b)|^2 over 10^4 random message/book pairs is 1 +- 2%
        space = ApSpace(M=16, K=2)
        rng = np.random.default_rng(123)
        total = 0.0
        n_trials = 10_000
        for i in range(n_trials):
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            s = build_sparse_vector(msg, 16)
            book = generate_set(int(rng.integers(0, 2**31)), 1, 32, 16)[0]
            total += np.mean(np.abs(spread(s, book)) ** 2)
        assert abs(total / n_trials - 1.0) < 0.02


class TestOfdm:
    def test_constant_spectrum_is_impulse(self):
        c = 0.3 - 0.8j
        x = np.full(16, c)
        t = ofdm_modulate(x, 4)
        body = t[4:]
        assert np.isclose(body[0], math.sqrt(16) * c)
        assert np.allclose(body[1:], 0.0, atol=1e-12)
        assert np.allclose(t[:4], 0.0, atol=1e-12)  # CP copies trailing zeros

    def test_cp_is_cyclic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        t = ofdm_modulate(x, 8)
        assert np.array_equal(t[:8], t[-8:])
        assert len(t) == 40

    def test_inverse_pair(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        back = ofdm_demodulate(ofdm_modulate(x, 16), 16)
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        body = ofdm_modulate(x, 0)
        assert abs(np.linalg.norm(body) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)

    def test_zero_in_zero_out(self):
        assert np.array_equal(ofdm_demodulate(np.zeros(40, complex), 8), np.zeros(32))

    def test_invalid_cp(self):
        x = np.zeros(16, complex)
        with pytest.raises(ValueError):
            ofdm_modulate(x, 16)
        with pytest.raises(ValueError):
            ofdm_modulate(x, -1)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ofdm_modulate(np.zeros(12, complex), 2)


def test_end_to_end_noiseless_identity():
    space = ApSpace(M=32, K=2)
    book = generate_set(seed=21, G=1, n=64, m=32)[0]
    msg = encode_bits(int_to_bits(17, space.m_bits), space)
    x = spread(build_sparse_vector(msg, 32), book)
    back = ofdm_demodulate(ofdm_modulate(x, 16), 16)
    assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x)) * 64
