"""Detector tests: co-phasing algebra, greedy recovery against an
independent OMP oracle, decision rules, ML baselines and scale invariance.
"""
import gc
import itertools
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svcim.detectors
from svcim.channel import apply_freq, apply_time, draw_channel
from svcim.codebook import generate_set
from svcim.detectors import (
    ML_CANDIDATE_CAP,
    RESIDUAL_RTOL,
    MmpDfParams,
    Sensing,
    _amplitudes,
    _extend,
    _ml_metrics,
    build_ml_candidates,
    cophase,
    ml_secbim,
    mmp_df,
    secbim_decode,
    secbim_joint_metrics,
    sensing_matrix,
)
from svcim.harness import SweepPlan, run_ber_sweep
from svcim.index_codec import ApSpace, encode_bits, int_to_bits, rank_to_combo, symbol_rows
from svcim.link import LinkContext, SystemConfig, decode_frame, transmit_frame
from svcim.transceiver import build_sparse_vector, ofdm_demodulate, ofdm_modulate, spread

from oracles import (
    degenerate_gram,
    dense,
    reference_ml_candidates,
    reference_mmp_df,
    reference_mmp_df_lstsq,
    reference_omp,
)


def _random_message_chain(rng, n, m, v, params, space, seed=0, n0=0.0):
    """One random frame up to the receiver input."""
    book = generate_set(seed, 1, n, m)[0]
    value = int(rng.integers(0, 2 ** space.m_bits))
    msg = encode_bits(int_to_bits(value, space.m_bits), space)
    x = spread(build_sparse_vector(msg, m), book)
    _, h_freq = draw_channel(v, n, rng)
    y = apply_freq(x, h_freq, n0, rng)
    return book, msg, h_freq, y


class TestCophase:
    def test_real_positive_channel_is_identity(self):
        y = np.array([1 + 2j, -3j, 0.5])
        h = np.array([2.0, 0.1, 7.0])
        assert np.allclose(cophase(y, h), y)

    def test_extracts_magnitude(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = cophase(h, h)
        assert np.allclose(out.imag, 0.0, atol=1e-12)
        assert np.all(out.real >= 0)
        assert np.allclose(out.real, np.abs(h))

    def test_preserves_magnitudes(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.allclose(np.abs(cophase(y, h)), np.abs(y))

    def test_zero_gain_bin_passes_through(self):
        y = np.array([1 + 1j, 2.0])
        h = np.array([0.0, 1.0])
        assert np.allclose(cophase(y, h), y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^h_freq must be an array of shape \(4,\), got \(5,\)$"):
            cophase(np.zeros(4), np.zeros(5))

    @pytest.mark.parametrize("y,h,name,got", [
        (np.complex128(1), np.ones(32, complex), "y_freq", "complex128"),
        (np.ones(32, complex).tolist(), np.ones(32, complex), "y_freq", "list"),
        (np.ones(32, complex), np.float64(1.0), "h_freq", "float64"),
    ], ids=["scalar-y", "list-y", "scalar-h"])
    def test_non_arrays_named(self, y, h, name, got):
        with pytest.raises(ValueError, match=rf"^{name} must be an array of shape .*, got {got}$"):
            cophase(y, h)


class TestSensingMatrix:
    def test_identity_channel(self):
        book = generate_set(2, 1, 8, 4)[0]
        (psi,) = sensing_matrix(np.ones(8), book[None], k=2)
        assert np.allclose(dense(psi), book / math.sqrt(2))

    def test_rows_scale_with_gain(self):
        book = generate_set(3, 1, 4, 4)[0]
        h = np.array([1.0, 2.0, 0.5, 3.0]) * np.exp(1j * np.array([0.1, -2.0, 1.5, 0.4]))
        psi = dense(sensing_matrix(h, book[None], k=2)[0])
        for beta in range(4):
            assert np.allclose(np.abs(psi[beta]), abs(h[beta]) / math.sqrt(2))

    def test_noiseless_chain_matches_model(self):
        # algebraic oracle: the received block (spread through channel) == psi @ s exactly
        rng = np.random.default_rng(4)
        space = ApSpace(M=32, K=2)
        for trial in range(50):
            book, msg, h_freq, y = _random_message_chain(
                rng, 64, 32, 10, None, space, seed=trial
            )
            s = build_sparse_vector(msg, 32)
            lhs = y
            rhs = dense(sensing_matrix(h_freq, book[None], k=2)[0]) @ s
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dimension_mismatch(self):
        book = generate_set(2, 1, 8, 4)[0]
        with pytest.raises(ValueError):
            sensing_matrix(np.ones(4), book[None], k=2)

    @pytest.mark.parametrize("which,got", [("one-book", r"\(16, 8\)"), ("list", "list")])
    def test_books_not_a_set_named(self, which, got):
        # named as the argument, not as the psi entries of the factor it builds
        books = generate_set(0, 1, 16, 8)
        bad = books[0] if which == "one-book" else books.tolist()
        with pytest.raises(ValueError, match=rf"^books must be an array of shape \(\*, 16, \*\), got {got}$"):
            sensing_matrix(np.ones(16), bad, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_factors_equal_the_dense_product(self, k):
        # the factored form stands for exactly the matrix that used to be built
        rng = np.random.default_rng(40 + k)
        book = generate_set(k, 1, 64, 32)[0]
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        (psi,) = sensing_matrix(h, book[None], k)
        expected = (h / math.sqrt(k))[:, None] * book
        assert dense(psi).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_factor_carries_its_sparsity(self, k):
        books = generate_set(k, 2, 16, 8)
        psis = sensing_matrix(np.ones(16), books, np.int64(k))
        assert [(psi.k, type(psi.k)) for psi in psis] == [(k, int)] * 2

    @pytest.mark.parametrize("k", [2.0, True, "2", None])
    def test_sparsity_taken_by_the_type_rule(self, k):
        book = generate_set(2, 1, 8, 4)[0]
        with pytest.raises(ValueError, match=f"^k must be int, got {re.escape(repr(k))}$"):
            Sensing(book, np.ones(8), k)
        with pytest.raises(ValueError, match="^k must be int"):
            sensing_matrix(np.ones(8), book[None], k)


class TestMmpDfParams:
    def test_fields_are_the_config_search_controls(self):
        # one field per SystemConfig mmp_* field, in the same order; K is the space's
        assert [f.name for f in fields(MmpDfParams)] == [
            f.name.removeprefix("mmp_") for f in fields(SystemConfig) if f.name.startswith("mmp_")]

    @pytest.mark.parametrize("name,value,tp", [
        ("upsilon", float("nan"), "int"), ("upsilon", 2.0, "int"), ("omega", True, "int"),
        ("omega", 1.5, "int"), ("lam", "0.1", "float"), ("lam", True, "float"),
        ("relative_stop", "no", "bool"), ("relative_stop", 1, "bool"),
    ])
    def test_values_taken_by_the_type_rule(self, name, value, tp):
        with pytest.raises(ValueError, match=f"^{name} must be {tp}, got {re.escape(repr(value))}$"):
            MmpDfParams(**{name: value})

    def test_numpy_scalars_stored_as_python_values(self):
        params = MmpDfParams(omega=np.int64(3), lam=np.float32(0.5), upsilon=np.int32(4))
        assert params == MmpDfParams(omega=3, lam=0.5, upsilon=4)
        assert [type(v) for v in (params.omega, params.lam, params.upsilon)] == [int, float, int]


class TestMmpDf:
    def test_noiseless_exhaustive_recovery(self):
        space = ApSpace(M=16, K=2)
        book = generate_set(7, 1, 32, 16)[0]
        (psi,) = sensing_matrix(np.ones(32), book[None], k=2)
        params = MmpDfParams()
        for value in range(2 ** space.m_bits):
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            s = build_sparse_vector(msg, 16)
            est = mmp_df(dense(psi) @ s, psi, params)
            assert est.support == msg.indices
            assert np.allclose(est.coeffs, s[np.array(msg.indices) - 1])
            assert est.residual_norm < 1e-9

    def test_k1_reduces_to_matched_filter(self):
        rng = np.random.default_rng(5)
        book = generate_set(11, 1, 32, 16)[0]
        for omega in (1, 2, 4):
            params = MmpDfParams(omega=omega)
            for _ in range(20):
                h = np.abs(rng.standard_normal(32) + 1j * rng.standard_normal(32))
                psi = h[:, None] * book
                y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
                est = mmp_df(y, Sensing(psi, np.ones(32), 1), params)
                expected = int(np.argmax(np.abs(psi.conj().T @ y))) + 1
                assert est.support == (expected,)

    def test_omega_one_equals_omp_oracle(self):
        rng = np.random.default_rng(6)
        params = MmpDfParams(omega=1, lam=1e-9, upsilon=1)
        space = ApSpace(M=24, K=2)
        n0 = 2.0 * 10.0 ** (-8.0 / 10.0)
        for trial in range(100):
            book, msg, h_freq, y = _random_message_chain(
                rng, 32, 24, 8, params, space, seed=trial, n0=n0
            )
            (psi,) = sensing_matrix(h_freq, book[None], k=2)
            est = mmp_df(y, psi, params)
            oracle = reference_omp(y, dense(psi), 2)
            assert tuple(i - 1 for i in est.support) == oracle

    def test_full_depth_solve_budget(self):
        rng = np.random.default_rng(7)
        for omega, upsilon in [(1, 1), (2, 2), (2, 8), (3, 4)]:
            params = MmpDfParams(omega=omega, upsilon=upsilon)
            psi = rng.standard_normal((16, 12))
            y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            est = mmp_df(y, Sensing(psi, np.ones(16), 2), params)
            assert est.ls_solves <= min(upsilon, omega ** 2)
            assert est.ls_solves >= 1

    def test_support_sorted_and_coeffs_aligned(self):
        rng = np.random.default_rng(8)
        psi = rng.standard_normal((20, 10))
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        est = mmp_df(y, Sensing(psi, np.ones(20), 3), MmpDfParams(omega=2, upsilon=4))
        assert est.support == tuple(sorted(est.support))
        sup0 = [i - 1 for i in est.support]
        assert len(est.coeffs) == 3
        # reported residual matches its own support/coeffs
        recon = psi[:, sup0] @ est.coeffs
        assert np.isclose(est.residual_norm, np.linalg.norm(y - recon))

    def test_duplicate_column_degeneracy(self):
        # both columns identical: the 2x2 normal equations are singular, the
        # candidate is skipped with infinite residual instead of crashing
        psi = np.ones((8, 2))
        y = np.ones(8, dtype=complex)
        est = mmp_df(y, Sensing(psi, np.ones(8), 2), MmpDfParams(omega=1, upsilon=1))
        assert est.support == (1, 2)
        assert math.isinf(est.residual_norm)
        assert np.array_equal(est.coeffs, np.zeros(2))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_column_repeated_up_to_sign_is_degenerate(self, sign):
        # N = 4 rows, the second column the first up to sign: the exact pivot
        # is zero, but the leaf's diagonal (a dot) and its off-diagonal entry (a
        # product with the whole book) round differently, so the computed pivot
        # is often a few eps; the scale-relative rule scores the path degenerate
        rng = np.random.default_rng(16)
        col = np.array([1.0, -1.0, 1.0, 1.0])
        entries = np.column_stack([col, sign * col])
        nonzero_det = 0
        for _ in range(40):
            psi = Sensing(entries, rng.uniform(0.05, 3.0, 4), 2)
            g0 = entries.T.dot(psi.gains ** 2 * col)
            new = entries[:, 1] * psi.gains
            nonzero_det += g0[0] * new.dot(new) - g0[1] * g0[1] != 0.0
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for search in (mmp_df, reference_mmp_df):
                est = search(y, psi, MmpDfParams(omega=1, upsilon=2))
                assert (est.support, est.ls_solves, est.stop) == ((1, 2), 1, "exhausted")
                assert est.residual_norm == math.inf
                assert np.array_equal(est.coeffs, np.zeros(2))
        assert nonzero_det > 0  # the draws reach rounded pivots, not only exact zeros

    def test_pivot_rule_is_relative_to_the_column_norm(self):
        # one rule in the search's factor and in the oracle: a new pivot at most
        # PIVOT_RTOL = 256 eps times the new column's squared norm (its diagonal
        # entry) is degenerate, at any scale
        for scale in (1e-150, 1.0, 1e150):
            near = [[scale, scale], [scale, scale * (1 + 64 * np.finfo(float).eps)]]
            far = [[scale, scale], [scale, scale * (1 + 1e-9)]]
            # the factor grows one column at a time, from the empty path
            first = _extend(([], [], [], 0.0), [], scale, 1.0 + 0j)
            assert first is not None
            assert _extend(first, near[1][:1], near[1][1], 1.0 + 0j) is None
            assert degenerate_gram(np.array(near))
            assert _extend(first, far[1][:1], far[1][1], 1.0 + 0j) is not None
            assert not degenerate_gram(np.array(far))

    def test_small_column_far_from_the_span_is_scored(self):
        # a column of squared norm 1e-16 orthogonal to the other: its pivot is
        # 1e-16 of the largest diagonal entry but all of its own, so the fit is
        # well posed and exact
        psi = Sensing(np.eye(2), np.array([1.0, 1e-8]), 2)
        y = np.array([1 + 1j, 1e-8 * (2 - 1j)])
        for search in (mmp_df, reference_mmp_df, reference_mmp_df_lstsq):
            est = search(y, psi, MmpDfParams())
            assert (est.support, est.stop) == ((1, 2), "threshold")
            assert np.allclose(est.coeffs, [1 + 1j, 2 - 1j], rtol=1e-12, atol=0)
            assert est.residual_norm < 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("pair", ["near", "far"])
    def test_pivot_rule_through_the_search(self, pair, scale):
        # psi = sqrt(scale) [[1, 1], [0, t]] has the Gram matrix of the pair
        # above, [[s, s], [s, s (1 + t^2)]] with t^2 = 64 eps (near) or 1e-9 (far):
        # the search's one 2 x 2 leaf is degenerate for the near pair at every scale
        t = math.sqrt(64 * np.finfo(float).eps if pair == "near" else 1e-9)
        psi = Sensing(np.array([[1.0, 1.0], [0.0, t]]), np.full(2, math.sqrt(scale)), 2)
        y = np.array([1.0 - 2.0j, 0.5 + 1.0j])
        params = MmpDfParams()
        est, ref = mmp_df(y, psi, params), reference_mmp_df(y, psi, params)
        assert (est.support, est.ls_solves, est.stop) == (ref.support, ref.ls_solves, ref.stop)
        assert (est.support, est.ls_solves) == ((1, 2), 1)
        if pair == "near":
            assert est.stop == "exhausted"
            assert est.residual_norm == ref.residual_norm == math.inf
            assert np.array_equal(est.coeffs, np.zeros(2))
        else:  # two columns, two rows: an exact fit
            assert est.stop == "threshold"
            assert math.isfinite(est.residual_norm) and math.isfinite(ref.residual_norm)
            assert np.all(np.isfinite(est.coeffs)) and np.any(est.coeffs != 0)

    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            mmp_df(np.zeros(4, complex), Sensing(np.ones((4, 1)), np.ones(4), 2), MmpDfParams())

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match=r"^psi k \(sparsity\) must lie in \[1, 2\], got 4$"):
            mmp_df(np.ones(2, complex), Sensing(np.ones((2, 5)), np.ones(2), 4), MmpDfParams())

    @pytest.mark.parametrize("rule,k,build", [
        (r"psi k \(sparsity\) must lie in \[1, 4\]", 0, lambda k: Sensing(np.ones((4, 4)), np.ones(4), k)),
        (r"psi k \(sparsity\) must lie in \[1, 4\]", -1, lambda k: Sensing(np.ones((4, 4)), np.ones(4), k)),
        ("sparsity k must be >= 1", 0, lambda k: sensing_matrix(np.ones(4), np.ones((1, 4, 4)), k)),
        ("omega must be >= 1", 0, lambda k: MmpDfParams(omega=k)),
        ("upsilon must be >= 1", -1, lambda k: MmpDfParams(upsilon=k)),
    ], ids=["0", "-1", "sensing_matrix", "omega", "upsilon"])
    def test_sparsity_below_one_rejected(self, rule, k, build):
        # the search's bounds, each in the one form of codebook.require_at_least or (the
        # factor's k, bounded by its shape too) codebook.require_in_range, checked when
        # its holder is built
        with pytest.raises(ValueError, match=rf"^{rule}, got {k}$"):
            build(k)

    def test_depth_is_the_factor_sparsity(self):
        rng = np.random.default_rng(12)
        entries = rng.standard_normal((16, 8))
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for k in (1, 2, 3):
            est = mmp_df(y, Sensing(entries, np.ones(16), k), MmpDfParams())
            assert len(est.support) == len(est.coeffs) == k

    def test_omega_capped_at_the_unused_columns(self):
        # omega = M asks every node for more children than it has unused columns;
        # the search visits each support once, and no path repeats a column
        rng = np.random.default_rng(10)
        psi = Sensing(rng.standard_normal((8, 5)), np.ones(8), 3)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = mmp_df(y, psi, MmpDfParams(omega=5, lam=1e-12, upsilon=100))
        assert (est.stop, est.ls_solves) == ("exhausted", math.comb(5, 3))
        assert len(set(est.support)) == 3
        best = min(itertools.combinations(range(5), 3), key=lambda cols: np.linalg.norm(
            y - dense(psi)[:, cols] @ np.linalg.lstsq(dense(psi)[:, cols], y, rcond=None)[0]))
        assert est.support == tuple(c + 1 for c in best)

    @pytest.mark.parametrize("omega", [1, 3])
    def test_no_candidate_scored_is_exhausted(self, omega):
        # zero gains: every inner node meets a zero pivot, so no depth-k path is
        # scored; the estimate is the documented one, as in the reference search
        rng = np.random.default_rng(11)
        psi = Sensing(rng.choice([-1.0, 1.0], size=(8, 6)), np.zeros(8), 3)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        params = MmpDfParams(omega=omega, upsilon=4)
        for est in (mmp_df(y, psi, params), reference_mmp_df(y, psi, params)):
            assert (est.support, est.ls_solves, est.stop) == ((1, 2, 3), 0, "exhausted")
            assert est.residual_norm == math.inf
            assert np.array_equal(est.coeffs, np.zeros(3, complex))

    def test_complex_psi_rejected(self):
        psi = generate_set(3, 1, 16, 8)[0] * (1 + 1j)
        with pytest.raises(ValueError, match="psi"):
            mmp_df(np.ones(16, complex), Sensing(psi, np.ones(16), 2), MmpDfParams())

    @pytest.mark.parametrize("field", ["entries"])
    def test_complex_factor_rejected(self, field):
        parts = {"entries": generate_set(3, 1, 16, 8)[0], "gains": np.ones(16)}
        parts[field] = parts[field] * (1 + 1j)
        with pytest.raises(ValueError, match=f"psi {field} must be real"):
            mmp_df(np.ones(16, complex), Sensing(**parts, k=2), MmpDfParams())

    def test_complex_gains_searched(self):
        # the channel's complex gains are the factor's own: no co-phasing first
        rng = np.random.default_rng(16)
        book = generate_set(3, 1, 16, 8)[0]
        gains = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / math.sqrt(2)
        psi = Sensing(book, gains, 2)
        y = dense(psi)[:, [1, 6]] @ np.array([1 + 1j, -1 + 1j])
        y += 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        est, ref = mmp_df(y, psi, MmpDfParams()), reference_mmp_df(y, psi, MmpDfParams())
        assert (est.support, est.ls_solves, est.stop) == (ref.support, ref.ls_solves, ref.stop)
        assert est.support == (2, 7)
        assert np.allclose(est.coeffs, ref.coeffs, rtol=1e-12, atol=1e-12)

    def test_complex_gains_accepted_when_built(self):
        gains = np.ones(4) * 1j
        assert Sensing(np.ones((4, 4)), gains, 2).gains is gains

    @pytest.mark.parametrize("gains", [np.ones(15), np.ones(17), np.ones((16, 1)), np.float64(1.0)],
                             ids=["short", "long", "2-D", "scalar"])
    def test_misshapen_gains_rejected(self, gains):
        with pytest.raises(ValueError, match=r"^psi gains must be an array of shape \(16,\), got "):
            mmp_df(np.ones(16, complex), Sensing(generate_set(3, 1, 16, 8)[0], gains, 2),
                   MmpDfParams())

    @pytest.mark.parametrize("entries,gains,k,message", [
        (np.ones((4, 4)), np.ones(4), 0, r"^psi k \(sparsity\) must lie in \[1, 4\], got 0$"),
        (np.ones((4, 4)) * 1j, np.ones(4), 2, "^psi entries must be real"),
        (np.ones(4), np.ones(4), 1, r"^psi entries must be an array of shape \(\*, \*\), got \(4,\)$"),
        (np.ones((4, 4)), np.ones(3), 2, r"^psi gains must be an array of shape \(4,\), got \(3,\)$"),
        (np.ones((4, 4)).tolist(), np.ones(4), 2,
         r"^psi entries must be an array of shape \(\*, \*\), got list$"),
        (np.ones((4, 1)), np.ones(4), 2, r"^psi k \(sparsity\) must lie in \[1, 1\], got 2$"),
        (np.ones((2, 5)), np.ones(2), 4, r"^psi k \(sparsity\) must lie in \[1, 2\], got 4$"),
    ], ids=["k=0", "complex-entries", "1-D", "short-gains", "list-entries",
            "columns", "rows"])
    def test_malformed_factor_rejected_when_built(self, entries, gains, k, message):
        # the factor checks itself: no search is needed to find the fault
        with pytest.raises(ValueError, match=message):
            Sensing(entries, gains, k)

    @pytest.mark.parametrize("psi", [np.ones((16, 8)), None, (np.ones((16, 8)), np.ones(16), 2)],
                             ids=["array", "None", "tuple"])
    def test_psi_not_a_sensing_named(self, psi):
        with pytest.raises(ValueError, match="^psi must be Sensing, got "):
            mmp_df(np.ones(16, complex), psi, MmpDfParams())

    def test_one_dimensional_entries_rejected(self):
        with pytest.raises(ValueError, match=r"^psi entries must be an array of shape \(\*, \*\)"):
            mmp_df(np.ones(16, complex), Sensing(np.ones(16), np.ones(16), 1), MmpDfParams())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gains_rejected(self, value):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        gains = np.ones(16)
        gains[5] = value
        psi = Sensing(generate_set(3, 1, 16, 8)[0], gains, 2)
        with pytest.raises(ValueError, match="NaN or inf"):
            mmp_df(y, psi, MmpDfParams())

    @pytest.mark.parametrize("where", ["y_hat", "psi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, value):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = generate_set(3, 1, 16, 8)[0].copy()
        if where == "y_hat":
            y[5] = value
        else:
            psi[5, 3] = value
        with pytest.raises(ValueError, match="NaN or inf"):
            mmp_df(y, Sensing(psi, np.ones(16), 2), MmpDfParams())

    def test_absolute_stop_switch(self):
        # pure noise scaled to norm 10: candidate residuals sit near 9, so a
        # relative threshold of 0.95 stops at the first candidate while the
        # same number read as an absolute residual keeps searching
        rng = np.random.default_rng(14)
        psi = Sensing(generate_set(3, 1, 32, 16)[0] / math.sqrt(2), np.ones(32), 2)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        y *= 10.0 / np.linalg.norm(y)
        relative = mmp_df(y, psi, MmpDfParams(omega=2, lam=0.95, upsilon=4))
        absolute = mmp_df(
            y, psi, MmpDfParams(omega=2, lam=0.95, upsilon=4, relative_stop=False)
        )
        assert relative.ls_solves == 1
        # distinct supports in this tree: 3 (one duplicate pruned)
        assert absolute.ls_solves == 3
        assert absolute.residual_norm <= relative.residual_norm

    def test_stop_reasons(self):
        rng = np.random.default_rng(15)
        psi = Sensing(generate_set(5, 1, 32, 16)[0], rng.uniform(0.2, 2.0, 32), 2)
        exact = dense(psi)[:, [3, 11]] @ np.array([1 + 1j, -1 + 1j])
        noise = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        for y, omega, upsilon, stop, solves in [
            (exact, 2, 2, "threshold", 1),
            (noise, 2, 2, "budget", 2),
            (noise, 1, 2, "exhausted", 1),  # omega = 1 leaves a single candidate
        ]:
            est = mmp_df(y, psi, MmpDfParams(omega=omega, upsilon=upsilon))
            assert (est.stop, est.ls_solves) == (stop, solves)

    def test_all_zero_input_is_deterministic(self):
        psi = Sensing(generate_set(13, 1, 16, 8)[0] / math.sqrt(2), np.ones(16), 2)
        est = mmp_df(np.zeros(16, complex), psi, MmpDfParams())
        assert est.support == (1, 2)  # stable tie-break toward low columns
        assert np.allclose(est.coeffs, 0.0)


@st.composite
def _cophased_columns(draw):
    """1-3 columns of a +-1 book scaled row-wise by |h|, and a received vector."""
    c = draw(st.integers(1, 3))
    n = draw(st.integers(c, 64))
    signs = draw(arrays(np.float64, (n, c), elements=st.sampled_from([-1.0, 1.0])))
    if c >= 2 and draw(st.booleans()):
        # near-collinear: the second column differs from the first in one row
        signs[:, 1] = signs[:, 0]
        signs[draw(st.integers(0, n - 1)), 1] *= -1
    assume(np.linalg.matrix_rank(signs) == c)
    h_abs = draw(arrays(np.float64, n, elements=st.floats(0.01, 4.0)))
    y = draw(arrays(np.complex128, n, elements=st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False)))
    return h_abs[:, None] * signs, y


class TestLsFit:
    @given(_cophased_columns())
    @settings(max_examples=300, deadline=None)
    def test_matches_lstsq_oracle(self, case):
        # normal equations lose accuracy as cond(A)^2: both gaps are bounded
        # by 64 eps cond(A)^2 times the scale of the quantity compared
        a, y = case
        gram, c0 = a.T @ a, a.T @ y
        factor = ([], [], [], 0.0)  # the empty path, extended one column at a time
        for j in range(len(gram)):
            factor = _extend(factor, gram[j, :j].tolist(), gram[j, j].item(), c0[j].item())
        coef = np.array(_amplitudes(factor))
        resid = y - a @ coef
        ref, *_ = np.linalg.lstsq(a, y, rcond=None)
        sv = np.linalg.svd(a, compute_uv=False)
        tol = 64 * np.finfo(float).eps * (sv[0] / sv[-1]) ** 2
        x_scale = np.linalg.norm(ref) + np.linalg.norm(y) / sv[0]
        assert np.linalg.norm(coef - ref) <= tol * x_scale
        r_gap = abs(np.linalg.norm(resid) - np.linalg.norm(y - a @ ref))
        assert r_gap <= tol * sv[0] * x_scale


class TestGramSearchMatchesReference:
    """The Gram-form search against the recursive search it replaced
    (``oracles.reference_mmp_df``), on identical inputs: per search the same
    support, LS solve count and stop reason; per frame the same decisions
    and bits."""

    # (G, K, search knobs); K = 3 takes the contract's knobs and absolute stop
    CASES = (
        (1, 1, {}),
        (4, 1, {}),
        (1, 2, {}),
        (4, 2, {}),
        (1, 3, dict(mmp_omega=3, mmp_lam=0.05, mmp_upsilon=4, mmp_relative_stop=False)),
        (4, 3, dict(mmp_omega=3, mmp_lam=0.05, mmp_upsilon=4, mmp_relative_stop=False)),
    )
    EBN0 = (0.0, 5.0, 10.0, 20.0, math.inf)
    FRAMES = 170  # per case and Eb/N0: 5100 frames

    @staticmethod
    def _degrade(h, rng):
        """Zero 4 bins exactly and fade 4 more to |h| = 1e-6."""
        h = h.copy()
        bins = rng.choice(len(h), 8, replace=False)
        h[bins[:4]] = 0.0
        h[bins[4:]] *= 1e-6 / np.abs(h[bins[4:]])
        return h

    @staticmethod
    def _decode(monkeypatch, search, y, h, ctx):
        """secbim_decode with ``search`` as the MMP-DF search; also returns every search result."""
        log = []

        def logged(y_hat, psi, params):
            est = search(y_hat, psi, params)
            log.append(est)
            return est

        monkeypatch.setattr(svcim.detectors, "mmp_df", logged)
        det = secbim_decode(y, h, ctx.books, ctx.space, ctx.cfg.mmp)
        return det, log

    def _assert_agree(self, monkeypatch, y, h, ctx):
        """Assert equal decisions and searches; return the searches' stop reasons."""
        det, log = self._decode(monkeypatch, mmp_df, y, h, ctx)
        ref, ref_log = self._decode(monkeypatch, reference_mmp_df, y, h, ctx)
        assert (det.d_hat, det.l_hat, det.g_hat) == (ref.d_hat, ref.l_hat, ref.g_hat)
        assert np.array_equal(det.bits, ref.bits)
        assert len(log) == len(ref_log) == len(ctx.books)
        # residuals from the residual vector: equal to rounding even when tiny
        r_tol = 1e-12 * np.linalg.norm(y)
        for est, ref_est in zip(log, ref_log):
            assert est.support == ref_est.support
            assert est.ls_solves == ref_est.ls_solves
            # the search records its stop reason; the oracle infers its own
            assert est.stop == ref_est.stop
            assert est.residual_norm == pytest.approx(ref_est.residual_norm, rel=1e-9, abs=r_tol)
        return {est.stop for est in log}

    def _frames(self):
        """(y, h, ctx) of every frame, then an all-zero block, per case and Eb/N0."""
        for case, (g, k, knobs) in enumerate(self.CASES):
            for ebn0 in self.EBN0:
                cfg = SystemConfig(scheme="secbim", G=g, N=64, M=32, K=k, ebn0_db=ebn0,
                                   seed=case, **knobs)
                ctx = LinkContext.for_config(cfg)
                rng = np.random.default_rng([case, int(min(ebn0, 99))])
                for i in range(self.FRAMES):
                    _, msg, y, h = transmit_frame(ctx, rng)
                    if i % 4 == 3:  # near-degenerate channel, same message
                        x = spread(build_sparse_vector(msg, cfg.M), ctx.books[msg.g - 1])
                        h = self._degrade(h, rng)
                        y = apply_freq(x, h, ctx.cfg.n0, rng)
                    yield y, h, ctx
                yield np.zeros(cfg.N, complex), h, ctx

    def test_frames_agree(self, monkeypatch):
        frames = 0
        for y, h, ctx in self._frames():
            self._assert_agree(monkeypatch, y, h, ctx)
            frames += 1
        assert frames >= 5000

    def test_search_reports_its_stop_reason(self, monkeypatch):
        # _assert_agree checks each stop against the oracle's; this checks that
        # the frames reach both early stops, so it ends once they have
        reasons = set()
        for y, h, ctx in self._frames():
            reasons |= self._assert_agree(monkeypatch, y, h, ctx)
            if {"threshold", "budget"} <= reasons:
                break
        # no tree here runs out before upsilon; TestMmpDf::test_stop_reasons has one that does
        assert {"threshold", "budget"} <= reasons

    @pytest.mark.parametrize("k,omega,upsilon,relative", [
        (1, 2, 2, True), (2, 1, 1, True), (2, 2, 2, True), (2, 3, 9, False),
        (3, 3, 4, False), (3, 2, 8, True),
    ])
    def test_exact_ties_go_to_the_lowest_column(self, k, omega, upsilon, relative):
        # integer data make every product and sum exact in both searches, so
        # duplicate columns tie exactly and both must take the lower index
        rng = np.random.default_rng(k * 100 + omega * 10 + upsilon)
        c = rng.choice([-1.0, 1.0], size=(32, 16))
        c[:, 9] = c[:, 2]
        c[:, 12] = c[:, 5]
        psi = Sensing(c, np.ones(32), k)
        params = MmpDfParams(omega=omega, lam=0.01, upsilon=upsilon, relative_stop=relative)
        for cols in ((2, 5, 7), (9, 12, 0), (2, 9, 4)):
            y = c[:, list(cols[:k])] @ np.array([1 + 1j, -2 + 1j, 3j])[:k]
            for y_hat in (y, np.zeros(32, complex)):
                est = mmp_df(y_hat, psi, params)
                ref = reference_mmp_df(y_hat, psi, params)
                assert est.support == ref.support
                assert est.ls_solves == ref.ls_solves
                assert est.stop == ref.stop
                assert est.residual_norm == pytest.approx(ref.residual_norm, rel=1e-9, abs=1e-9)
                assert np.allclose(est.coeffs, ref.coeffs, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("m,k,omega,upsilon", [
        (3, 2, 3, 9), (2, 2, 2, 2), (3, 3, 3, 9), (4, 3, 4, 20), (4, 2, 4, 20),
    ])
    def test_omega_beyond_the_unused_columns(self, m, k, omega, upsilon):
        # omega > M - depth below the root: both searches expand only the
        # unused columns, so no path repeats a column and no support is scored twice
        rng = np.random.default_rng([m, k, omega, upsilon])
        for trial in range(20):
            psi = Sensing(rng.choice([-1.0, 1.0], size=(8, m)), rng.uniform(0.2, 2.0, 8), k)
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            for lam in (1e-9, 0.1):
                params = MmpDfParams(omega=omega, lam=lam, upsilon=upsilon)
                est, ref = mmp_df(y, psi, params), reference_mmp_df(y, psi, params)
                assert (est.support, est.ls_solves, est.stop) == (ref.support, ref.ls_solves, ref.stop)
                assert est.ls_solves <= min(upsilon, math.comb(m, k))
                assert est.residual_norm == pytest.approx(ref.residual_norm, rel=1e-9,
                                                          abs=1e-12 * np.linalg.norm(y))


class TestNearTies:
    """Leaves whose residuals tie exactly, or differ by about 1e-12 of
    themselves: far above the rounding of either search, far below any gap
    the golden frames reach. The search and the oracle must pick the same
    support, with the same LS solves and stop reason: the smaller residual,
    and on an exact tie the leaf scored first."""

    @staticmethod
    def _residual(a, cols, y):
        sub = a[:, cols]
        return np.linalg.norm(y - sub @ np.linalg.lstsq(sub, y, rcond=None)[0])

    @pytest.mark.parametrize("gap", [-1e-12, 1e-12], ids=["u-wins", "v-wins"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_residuals_apart_by_1e12(self, k, gap):
        # y(t) = a_Q alpha + beta (t a_u + (1 - t) a_v) + noise on k + 1
        # columns, with Q the first k - 1, u = k - 1 and v = k. The path runs
        # through Q (|alpha| >= 3 > |beta| = 1), so the two leaves Q + u and
        # Q + v are scored one after the other, and t is set so that their
        # residuals differ by gap times their size
        rng = np.random.default_rng([21, k, gap > 0])
        prefix, u, v = list(range(k - 1)), k - 1, k
        params = MmpDfParams(omega=2, lam=1e-3, upsilon=2)
        for trial in range(20):
            psi = Sensing(rng.standard_normal((24, k + 1)), rng.uniform(0.5, 2.0, 24), k)
            a = dense(psi)
            alpha = (3.0 + rng.uniform(0, 1, k - 1)) * np.exp(2j * np.pi * rng.uniform(size=k - 1))
            base = a[:, prefix] @ alpha + 0.05 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
            beta = np.exp(2j * np.pi * rng.uniform())

            def frame(t):
                return base + beta * (t * a[:, u] + (1.0 - t) * a[:, v])

            def split(t):  # r(Q + u) - r(Q + v)
                y = frame(t)
                return self._residual(a, prefix + [u], y) - self._residual(a, prefix + [v], y)

            lo, hi = 0.0, 1.0  # split(0) > 0 > split(1)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if split(mid) > 0 else (lo, mid)
            slope = (split(hi + 1e-4) - split(lo - 1e-4)) / (hi - lo + 2e-4)
            size = self._residual(a, prefix + [u], frame(lo))
            t = lo + gap * size / slope
            y = frame(t)
            r_u, r_v = self._residual(a, prefix + [u], y), self._residual(a, prefix + [v], y)
            assert 0.5 * abs(gap) < abs(r_u - r_v) / r_u < 2.0 * abs(gap)
            assert (r_u < r_v) == (gap < 0)
            est, ref = mmp_df(y, psi, params), reference_mmp_df(y, psi, params)
            assert (est.support, est.ls_solves, est.stop) == (ref.support, ref.ls_solves, ref.stop)
            assert (est.ls_solves, est.stop) == (2, "budget")
            winner = u if gap < 0 else v
            assert est.support == tuple(sorted(c + 1 for c in prefix + [winner]))

    @staticmethod
    def _hadamard(n):
        h = np.ones((1, 1))
        while len(h) < n:
            h = np.block([[h, h], [h, -h]])
        return h

    @pytest.mark.parametrize("params", [MmpDfParams(omega=2, lam=1e-3, upsilon=2),
                                        MmpDfParams(omega=3, lam=1e-3, upsilon=20)],
                             ids=["budget", "exhausted"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_ties_go_to_the_first_leaf_scored(self, k, params):
        # orthogonal +-1 columns and small Gaussian-integer amplitudes keep every
        # product, solve and residual exact in both searches. Columns u < v carry
        # amplitudes of equal magnitude, so the leaves Q + u and Q + v tie
        # exactly; u ties v in correlation too and is expanded, and scored, first
        h = self._hadamard(16)
        psi = Sensing(h[:, :8], np.ones(16), k)
        rest = h[:, 8:] @ np.array([3, 0, 1 + 1j, 0, -2j, 0, 0, 1])  # off the book's columns
        prefix = [6, 1][: k - 1]
        amps = {6: 8 + 4j, 1: -7 + 5j}
        for u, v, (au, av) in [(2, 5, (2 + 1j, 1 - 2j)), (0, 7, (-3j, 3)), (3, 4, (1 + 1j, -1 + 1j))]:
            x = np.zeros(8, complex)
            for col in prefix:
                x[col] = amps[col]
            x[u], x[v] = au, av
            y = h[:, :8] @ x + rest
            est, ref = mmp_df(y, psi, params), reference_mmp_df(y, psi, params)
            assert (est.support, est.ls_solves, est.stop) == (ref.support, ref.ls_solves, ref.stop)
            assert est.residual_norm == ref.residual_norm
            assert est.support == tuple(sorted(c + 1 for c in prefix + [u]))
            assert est.stop == ("budget" if params.upsilon == 2 else "exhausted")


class TestLeafScoreFromNormalEquations:
    """A full-depth candidate is scored by ||y||^2 - Re(b^H x), and by the norm
    of its residual vector when that falls below RESIDUAL_RTOL ||y||^2. Both
    sides of that threshold, and the noiseless limit, against the oracle's
    explicit residual: the same support, stop reason and LS solve count, and
    residuals within rel 1e-9."""

    SEARCHES = (MmpDfParams(), MmpDfParams(omega=3, lam=1e-9, upsilon=5))

    @staticmethod
    def _generic(rng, n, m, k):
        """A real factor with Gaussian entries and gains that are no |h| / sqrt(k)."""
        return Sensing(rng.standard_normal((n, m)), rng.uniform(0.1, 3.0, n), k)

    @staticmethod
    def _assert_matches_oracle(y, psi, params):
        est = mmp_df(y, psi, params)
        ref = reference_mmp_df(y, psi, params)
        assert (est.support, est.stop, est.ls_solves) == (ref.support, ref.stop, ref.ls_solves)
        # a residual at rounding level is known only to about eps ||y||
        assert est.residual_norm == pytest.approx(ref.residual_norm, rel=1e-9,
                                                  abs=1e-12 * np.linalg.norm(y))
        return est

    @pytest.mark.parametrize("ratio", [1e-8, RESIDUAL_RTOL * (1 - 1e-3), RESIDUAL_RTOL * (1 + 1e-3),
                                       1e-4], ids=["1e-8", "below-tau", "above-tau", "1e-4"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_best_leaf_near_the_threshold(self, ratio, k):
        # y = psi_P s plus a part orthogonal to psi_P, scaled so that the best
        # leaf's squared residual is ratio * ||y||^2
        rng = np.random.default_rng([17, k, int(-math.log10(ratio) * 1000)])
        on_target = 0
        for trial in range(30):
            if trial % 2:
                psi = self._generic(rng, 32, 16, k)
            else:
                psi = Sensing(generate_set(trial, 1, 32, 16)[0], rng.uniform(0.1, 3.0, 32), k)
            cols = rng.choice(16, k, replace=False)
            a = dense(psi)[:, cols]
            signal = a @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            noise = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            noise -= a @ np.linalg.lstsq(a, noise, rcond=None)[0]
            noise *= math.sqrt(ratio / (1 - ratio)) * np.linalg.norm(signal) / np.linalg.norm(noise)
            y = signal + noise
            for params in self.SEARCHES:
                est = self._assert_matches_oracle(y, psi, params)
                if est.support == tuple(sorted(cols + 1)):  # not every tree reaches it
                    on_target += 1
                    assert est.residual_norm ** 2 == pytest.approx(ratio * np.vdot(y, y).real,
                                                                   rel=1e-6)
        assert on_target >= 40

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_noiseless_frames(self, k):
        # the best leaf fits exactly: the identity alone would read a residual
        # of about sqrt(eps) ||y||, or a negative square
        rng = np.random.default_rng([18, k])
        space = ApSpace(M=16, K=k)
        for trial in range(40):
            if trial % 2:
                psi = self._generic(rng, 32, 16, k)
            else:
                (psi,) = sensing_matrix(rng.standard_normal(32) + 1j * rng.standard_normal(32),
                                        generate_set(trial, 1, 32, 16), k)
            msg = encode_bits(int_to_bits(int(rng.integers(0, 2 ** space.m_bits)), space.m_bits),
                              space)
            y = dense(psi) @ build_sparse_vector(msg, 16)
            for params in self.SEARCHES:
                est = self._assert_matches_oracle(y, psi, params)
                assert est.support == msg.indices
                assert est.residual_norm < 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_generic_sensing(self, k):
        # Gaussian entries, gains not of a channel, from pure noise to 40 dB
        rng = np.random.default_rng([19, k])
        for trial in range(60):
            psi = self._generic(rng, 24, 12, k)
            cols = rng.choice(12, k, replace=False)
            signal = dense(psi)[:, cols] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            noise = rng.standard_normal(24) + 1j * rng.standard_normal(24)
            for snr_db in (-math.inf, 0.0, 10.0, 40.0):
                y = signal * 10.0 ** (snr_db / 20.0) + noise
                for params in self.SEARCHES:
                    self._assert_matches_oracle(y, psi, params)

    @pytest.mark.parametrize("entries", ["pm1", "gaussian"])
    def test_tiny_absolute_threshold_exhausts_the_tree(self, entries):
        # K = N: every leaf fits exactly, so its true residual is rounding; the
        # identity would read 0 and stop on lambda = 1e-300, the residual vector does not
        rng = np.random.default_rng(15)
        if entries == "pm1":
            psi = Sensing(rng.choice([-1.0, 1.0], size=(4, 8)), rng.uniform(0.2, 2.0, 4), 4)
        else:
            psi = Sensing(rng.standard_normal((4, 8)), rng.uniform(0.2, 2.0, 4), 4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        params = MmpDfParams(omega=2, lam=1e-300, upsilon=100, relative_stop=False)
        est, ref = mmp_df(y, psi, params), reference_mmp_df(y, psi, params)
        # all leaves tie to rounding, so the pick among them is not compared
        assert est.stop == ref.stop == "exhausted"
        assert est.residual_norm < 1e-12 * np.linalg.norm(y)
        if entries == "gaussian":
            assert est.ls_solves == ref.ls_solves == 12
        # with +-1 entries the residual is one-dimensional at every depth-3
        # node, so its best children tie exactly in exact arithmetic: which
        # of them is expanded, and so how many distinct leaves the tree holds,
        # is decided by rounding and is not compared


class TestDeepFadeDecisionsMatchLstsq:
    """The search solves normal equations, which square the condition number
    of the K active columns. On deep fades its decisions must still equal
    those of the same search with every fit by ``np.linalg.lstsq``
    (``oracles.reference_mmp_df_lstsq``)."""

    K3 = dict(mmp_omega=3, mmp_lam=0.05, mmp_upsilon=4, mmp_relative_stop=False)
    CASES = ((1, 2, {}), (4, 2, {}), (1, 3, K3), (4, 3, K3))  # (G, K, search knobs)
    EBN0 = (0.0, 5.0, 10.0, 20.0, math.inf)
    FRAMES = 104  # per case and Eb/N0: 2080 frames, half of each fade

    def _frames(self):
        """(y, h, ctx) per frame: even frames take the zeroed and 1e-6 bins of
        ``TestGramSearchMatchesReference._degrade``, odd frames |h| cubed."""
        for case, (g, k, knobs) in enumerate(self.CASES):
            for ebn0 in self.EBN0:
                cfg = SystemConfig(scheme="secbim", G=g, N=64, M=32, K=k, ebn0_db=ebn0,
                                   seed=case, **knobs)
                ctx = LinkContext.for_config(cfg)
                rng = np.random.default_rng([7, case, int(min(ebn0, 99))])
                for i in range(self.FRAMES):
                    _, msg, _, h_freq = transmit_frame(ctx, rng)
                    if i % 2:
                        h = h_freq * np.abs(h_freq) ** 2
                    else:
                        h = TestGramSearchMatchesReference._degrade(h_freq, rng)
                    x = spread(build_sparse_vector(msg, cfg.M), ctx.books[msg.g - 1])
                    yield apply_freq(x, h, ctx.cfg.n0, rng), h, ctx

    def test_decisions_agree(self, monkeypatch):
        decode = TestGramSearchMatchesReference._decode
        frames = differ = 0
        for y, h, ctx in self._frames():
            det, log = decode(monkeypatch, mmp_df, y, h, ctx)
            ref, ref_log = decode(monkeypatch, reference_mmp_df_lstsq, y, h, ctx)
            assert [est.support for est in log] == [est.support for est in ref_log]
            differ += ((det.d_hat, det.l_hat, det.g_hat) != (ref.d_hat, ref.l_hat, ref.g_hat)
                       or not np.array_equal(det.bits, ref.bits))
            frames += 1
        assert frames >= 2000
        assert differ == 0


class TestUnrotatedMatchesCophased:
    """The decoders search the block as received, with the complex gains
    h / sqrt(K). Co-phasing it first, with the real gains |h| / sqrt(K), poses
    the same least-squares problems rotated row by row, which changes no
    residual norm and no amplitude. Both must return the same support, stop
    reason and LS solves, and residuals (over ||y||) and amplitudes (over the
    largest) equal to 1e-12, on both channel paths, through deep fades and a
    bin of exactly zero gain."""

    K3 = TestDeepFadeDecisionsMatchLstsq.K3
    CASES = tuple((path, g, k) for path in ("freq", "time") for g in (1, 4) for k in (1, 2, 3))
    EBN0 = (0.0, 10.0, 20.0, math.inf)
    FRAMES = 48  # per case and Eb/N0, every other one faded: 2304 frames

    @staticmethod
    def _faded(ctx, msg, h, rng, zero):
        """The frame's block sent again over a faded channel, on ``ctx``'s channel
        path: one bin of exactly zero gain (``zero``) or of gain 1e-6, and on the
        frequency path four more bins at 1e-6. Returns (y, h)."""
        cfg = ctx.cfg
        x = spread(build_sparse_vector(msg, cfg.M), ctx.books[msg.g - 1])
        if cfg.channel_path == "freq":
            h = h.copy()
            bins = rng.choice(cfg.N, 5, replace=False)
            h[bins] *= 1e-6 / np.abs(h[bins])
            if zero:
                h[bins[0]] = 0.0
            return apply_freq(x, h, cfg.n0, rng), h
        # taps (t, -t) null bin 0 exactly and fade the bins around it
        taps = draw_channel(2, cfg.N, rng)[0]
        taps[1] = -taps[0] if zero else -taps[0] * (1 - 1e-6)
        h = np.fft.fft(taps, cfg.N)
        assert (abs(h[0]) == 0) == zero
        return ofdm_demodulate(apply_time(ofdm_modulate(x, cfg.L), taps, cfg.n0, rng, cfg.L), cfg.L), h

    def test_same_searches(self):
        searches = 0
        for case, (path, g, k) in enumerate(self.CASES):
            for ebn0 in self.EBN0:
                cfg = SystemConfig(scheme="secbim", G=g, N=64, M=32, K=k, ebn0_db=ebn0,
                                   channel_path=path, seed=case, **(self.K3 if k == 3 else {}))
                ctx = LinkContext.for_config(cfg)
                rng = np.random.default_rng([29, case, int(min(ebn0, 99))])
                for i in range(self.FRAMES):
                    _, msg, y, h = transmit_frame(ctx, rng)
                    if i % 2:
                        y, h = self._faded(ctx, msg, h, rng, zero=i % 4 == 1)
                    y_hat = cophase(y, h)
                    for book in ctx.books:
                        est = mmp_df(y, Sensing(book, h / math.sqrt(k), k), cfg.mmp)
                        rot = mmp_df(y_hat, Sensing(book, np.abs(h) / math.sqrt(k), k), cfg.mmp)
                        assert (est.support, est.stop, est.ls_solves) == (rot.support, rot.stop,
                                                                          rot.ls_solves)
                        if rot.residual_norm == math.inf:
                            assert est.residual_norm == math.inf
                        else:
                            assert (abs(est.residual_norm - rot.residual_norm)
                                    <= 1e-12 * np.linalg.norm(y))
                        assert (np.abs(est.coeffs - rot.coeffs).max()
                                <= 1e-12 * np.abs(rot.coeffs).max())
                        searches += 1
        assert searches >= 5000


class TestNonFiniteFactor:
    """The search checks y and the gains before it multiplies them, and finds
    a NaN or inf from the entries as the first maximum of its root's
    correlations: one message for each, and no numpy warning on the way."""

    @pytest.mark.parametrize("where,value", [
        ("gain-real", np.nan), ("gain-real", np.inf), ("gain-imag", np.nan), ("gain-imag", np.inf),
        ("y-at-zero-gain", np.inf), ("entry", np.nan),
    ], ids=["nan-gain-real", "inf-gain-real", "nan-gain-imag", "inf-gain-imag", "inf-y-at-zero-gain",
            "nan-entry"])
    def test_rejected_without_warning(self, where, value):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y[5] = 1.0  # a zero imaginary part: conj(gains) * y would meet inf * 0 here
        gains = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / math.sqrt(2)
        entries = generate_set(3, 1, 16, 8)[0].copy()
        if where == "gain-real":
            gains[5] = complex(value, gains[5].imag)
        elif where == "gain-imag":
            gains[5] = complex(gains[5].real, value)
        elif where == "y-at-zero-gain":
            gains[5] = 0.0
            y[5] = value
        else:
            entries[5, 3] = value
        psi = Sensing(entries, gains, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^y_hat or psi \(entries, gains\) holds a NaN or inf$"):
                mmp_df(y, psi, MmpDfParams())


def _cyclic_garbage(run):
    """Call ``run()`` with the cyclic collector off; return how many
    unreachable objects the collector then finds (0: reference counting
    freed everything ``run`` left)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestNoCyclicGarbage:
    """A search leaves no reference cycle, so sweeps never need the cyclic
    collector: after a warm-up sweep, each sweep of every detector and
    channel path, and each way a search can stop, leaves nothing for it."""

    # K = 3 takes the contract's search controls and absolute stop
    CONFIGS = {
        "esvc-mmpdf": {},
        "secbim-g4": dict(scheme="secbim", G=4),
        "mmpdf-k3": dict(K=3, mmp_omega=3, mmp_lam=0.05, mmp_upsilon=4, mmp_relative_stop=False),
        "ml-freq": dict(detector="ml"),
        "ml-time": dict(detector="ml", channel_path="time"),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_sweep(self, name):
        cfg = SystemConfig(N=32, M=32, seed=5, **self.CONFIGS[name])
        plan = SweepPlan(cfg, "ebn0", (0.0, 8.0, math.inf), max_trials=64)

        def sweep():
            records = run_ber_sweep(plan, workers=1, measure_time=False)
            assert [r.trials for r in records] == [64] * 3

        sweep()  # warm-up: lazy imports and caches
        assert _cyclic_garbage(sweep) == 0

    @pytest.mark.parametrize("stop", ["threshold", "budget", "exhausted"])
    def test_search(self, stop):
        rng = np.random.default_rng(15)
        if stop == "exhausted":  # K = N: the deepest tree, walked to its end
            psi = Sensing(rng.choice([-1.0, 1.0], size=(4, 8)), rng.uniform(0.2, 2.0, 4), 4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            params = MmpDfParams(omega=2, lam=1e-300, upsilon=100, relative_stop=False)
        else:
            psi = Sensing(generate_set(5, 1, 32, 16)[0], rng.uniform(0.2, 2.0, 32), 2)
            y = dense(psi)[:, [3, 11]] @ np.array([1 + 1j, -1 + 1j])
            if stop == "budget":
                y = y + rng.standard_normal(32) + 1j * rng.standard_normal(32)
            params = MmpDfParams()
        out = []
        assert _cyclic_garbage(lambda: out.append(mmp_df(y, psi, params))) == 0
        assert out[0].stop == stop


class TestSymbolSetDecision:
    """The nearest-symbol-set rule, on LS amplitudes that a flat noiseless
    channel hands back exactly."""

    def _decode(self, coeffs, n_books=1):
        space = ApSpace(M=16, K=2)
        books = generate_set(5, n_books, 32, 16)
        (psi,) = sensing_matrix(np.ones(32), books[:1], k=2)
        y = dense(psi)[:, :2] @ np.asarray(coeffs, dtype=complex)  # support (1, 2), rank 0, reused
        h = np.ones(32, complex)
        det = secbim_decode(y, h, books, space, MmpDfParams())
        metrics, estimates = secbim_joint_metrics(y, h, books, space, MmpDfParams())
        assert estimates[det.g_hat - 1].support == (1, 2)
        return det, metrics[det.g_hat - 1, det.l_hat - 1]  # the decision's metric

    def test_exact_original(self):
        det, metric = self._decode([1, 1j])
        assert det.l_hat == 1 and metric < 1e-20

    def test_noisy_extended(self):
        # ||b - b2||^2 = 0.02 beats ||b - b1||^2 = 8.02
        det, metric = self._decode([-0.9, -1.1j])
        assert det.l_hat == 2 and np.isclose(metric, 0.02)

    def test_tie_breaks_to_original(self):
        # zero amplitudes tie every (book, set) pair at distance 2
        det, metric = self._decode([0, 0], n_books=2)
        assert (det.g_hat, det.l_hat) == (1, 1)
        assert metric == 2.0


class TestEsvcDecode:
    """The single-codebook case of the joint decoder, G = 1."""

    def test_reference_messages_flat_channel(self):
        space = ApSpace(M=4, K=2)
        books = generate_set(17, 1, 32, 4)
        book = books[0]
        params = MmpDfParams()
        h = np.ones(32, dtype=complex)
        for value in range(8):
            bits = int_to_bits(value, 3)
            msg = encode_bits(bits, space)
            y = spread(build_sparse_vector(msg, 4), book)  # h == 1
            det = secbim_decode(y, h, books, space, params)
            assert tuple(det.bits) == bits
            assert det.d_hat == msg.d
            assert det.g_hat == 1

    def test_noiseless_random_channels(self):
        rng = np.random.default_rng(9)
        space = ApSpace(M=64, K=2)
        params = MmpDfParams()
        for trial in range(1000):
            book, msg, h_freq, y = _random_message_chain(
                rng, 64, 64, 10, params, space, seed=trial % 13
            )
            det = secbim_decode(y, h_freq, book[None], space, params)
            assert det.d_hat == msg.d
            assert (det.l_hat == 2) == msg.extended

    def test_pure_noise_ber_near_half(self):
        rng = np.random.default_rng(10)
        space = ApSpace(M=64, K=2)
        params = MmpDfParams()
        books = generate_set(23, 1, 64, 64)
        book = books[0]
        n0 = 80 / space.m_bits * 10.0 ** (50.0 / 10.0)
        errors = total = 0
        for _ in range(400):
            value = int(rng.integers(0, 2 ** space.m_bits))
            bits = int_to_bits(value, space.m_bits)
            msg = encode_bits(bits, space)
            x = spread(build_sparse_vector(msg, 64), book)
            _, h_freq = draw_channel(10, 64, rng)
            y = apply_freq(x, h_freq, n0, rng)
            det = secbim_decode(y, h_freq, books, space, params)
            errors += sum(a != b for a, b in zip(bits, det.bits))
            total += space.m_bits
        assert abs(errors / total - 0.5) < 0.05


class TestSecbimDecode:
    @pytest.mark.parametrize("k", [2, 3])
    def test_coefficient_metrics_equal_full_vector_distances(self, k):
        # the decoder scores the K LS amplitudes; off the support the
        # length-M estimate and the placed symbol sets are both zero
        rng = np.random.default_rng(30 + k)
        space = ApSpace(M=16, K=k)
        params = MmpDfParams()
        books = generate_set(47, 2, 32, 16)
        n0 = 48 / (1 + space.m_bits) * 10.0 ** (-4.0 / 10.0)
        for _ in range(200):
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            x = spread(build_sparse_vector(msg, 16), books[int(rng.integers(0, 2))])
            _, h_freq = draw_channel(10, 32, rng)
            y = apply_freq(x, h_freq, n0, rng)
            metrics, estimates = secbim_joint_metrics(y, h_freq, books, space, params)
            for gi, est in enumerate(estimates):
                sup0 = [i - 1 for i in est.support]
                vec = np.zeros(16, complex)
                vec[sup0] = est.coeffs
                for li, symbols in enumerate(symbol_rows(k)):
                    ref = np.zeros(16, complex)
                    ref[sup0] = symbols
                    full = np.sum(np.abs(vec - ref) ** 2)
                    if k == 2:
                        assert metrics[gi, li] == full
                    else:
                        assert np.isclose(metrics[gi, li], full, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_metrics_equal_the_per_book_expression(self, k):
        # all books are scored in one expression; the bytes are those of one
        # expression per book
        rng = np.random.default_rng(50 + k)
        space = ApSpace(M=16, K=k)
        params = MmpDfParams()
        books = generate_set(59, 4, 32, 16)
        symbols = symbol_rows(k)
        n0 = 48 / (2 + space.m_bits) * 10.0 ** (-4.0 / 10.0)
        for _ in range(100):
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            x = spread(build_sparse_vector(msg, 16), books[int(rng.integers(0, 4))])
            _, h_freq = draw_channel(10, 32, rng)
            y = apply_freq(x, h_freq, n0, rng)
            metrics, estimates = secbim_joint_metrics(y, h_freq, books, space, params)
            per_book = np.empty((len(books), 2))
            for gi, est in enumerate(estimates):
                per_book[gi] = np.sum(np.abs(est.coeffs - symbols) ** 2, axis=1)
            assert metrics.shape == per_book.shape
            assert metrics.tobytes() == per_book.tobytes()

    def test_noiseless_recovery_g4(self):
        rng = np.random.default_rng(12)
        space = ApSpace(M=32, K=2)
        params = MmpDfParams()
        books = generate_set(37, 4, 32, 32)
        for _ in range(1000):
            g = int(rng.integers(1, 5))
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            x = spread(build_sparse_vector(msg, 32), books[g - 1])
            _, h_freq = draw_channel(10, 32, rng)
            y = apply_freq(x, h_freq, 0.0, rng)
            det = secbim_decode(y, h_freq, books, space, params)
            assert det.g_hat == g
            assert det.d_hat == msg.d
            expected_bits = int_to_bits(g - 1, 2) + int_to_bits(value, space.m_bits)
            assert tuple(det.bits) == expected_bits

    def test_noiseless_argmin_never_beaten_by_true_book(self):
        rng = np.random.default_rng(29)
        space = ApSpace(M=16, K=2)
        params = MmpDfParams()
        books = generate_set(43, 4, 32, 16)
        for _ in range(200):
            g = int(rng.integers(1, 5))
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            x = spread(build_sparse_vector(msg, 16), books[g - 1])
            _, h_freq = draw_channel(10, 32, rng)
            y = apply_freq(x, h_freq, 0.0, rng)
            metrics, _ = secbim_joint_metrics(y, h_freq, books, space, params)
            det = secbim_decode(y, h_freq, books, space, params)
            assert metrics[det.g_hat - 1].min() <= metrics[g - 1].min()

    def test_codebook_error_rate_high_snr(self):
        rng = np.random.default_rng(13)
        space = ApSpace(M=64, K=2)
        params = MmpDfParams()
        books = generate_set(41, 2, 64, 64)
        m_total = 1 + space.m_bits
        n0 = 80 / m_total * 10.0 ** (-30.0 / 10.0)
        wrong = 0
        n_trials = 10_000
        for _ in range(n_trials):
            g = int(rng.integers(1, 3))
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            x = spread(build_sparse_vector(msg, 64), books[g - 1])
            _, h_freq = draw_channel(10, 64, rng)
            y = apply_freq(x, h_freq, n0, rng)
            wrong += secbim_decode(y, h_freq, books, space, params).g_hat != g
        assert wrong / n_trials < 1e-3


class TestMlDetectors:
    def test_noiseless_always_exact(self):
        rng = np.random.default_rng(14)
        space = ApSpace(M=16, K=2)
        books = generate_set(43, 1, 32, 16)
        book = books[0]
        cand = build_ml_candidates(space)
        for value in range(2 ** space.m_bits):
            bits = int_to_bits(value, space.m_bits)
            msg = encode_bits(bits, space)
            x = spread(build_sparse_vector(msg, 16), book)
            _, h_freq = draw_channel(10, 32, rng)
            y = apply_freq(x, h_freq, 0.0, rng)
            det = ml_secbim(y, h_freq, books, space, cand)
            assert tuple(det.bits) == bits
            # zero metric at the truth, up to cancellation in the expansion
            metrics = _ml_metrics(y, h_freq, books, space, cand)
            assert metrics.min() < 1e-9 * np.sum(np.abs(y) ** 2)

    def test_agreement_with_greedy_high_snr(self):
        rng = np.random.default_rng(16)
        space = ApSpace(M=16, K=2)
        params = MmpDfParams()
        books = generate_set(53, 1, 32, 16)
        book = books[0]
        cand = build_ml_candidates(space)
        n0 = 48 / space.m_bits * 10.0 ** (-30.0 / 10.0)
        agree = 0
        n_trials = 10_000
        for _ in range(n_trials):
            value = int(rng.integers(0, 2 ** space.m_bits))
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            x = spread(build_sparse_vector(msg, 16), book)
            _, h_freq = draw_channel(10, 32, rng)
            y = apply_freq(x, h_freq, n0, rng)
            ml = ml_secbim(y, h_freq, books, space, cand)
            greedy = secbim_decode(y, h_freq, books, space, params)
            agree += np.array_equal(ml.bits, greedy.bits)
        assert agree / n_trials >= 0.99

    def test_secbim_noiseless_exhaustive(self):
        rng = np.random.default_rng(18)
        space = ApSpace(M=8, K=2)
        books = generate_set(61, 2, 32, 8)
        cand = build_ml_candidates(space)
        for g in (1, 2):
            for value in range(2 ** space.m_bits):
                msg = encode_bits(int_to_bits(value, space.m_bits), space)
                x = spread(build_sparse_vector(msg, 8), books[g - 1])
                _, h_freq = draw_channel(10, 32, rng)
                y = apply_freq(x, h_freq, 0.0, rng)
                det = ml_secbim(y, h_freq, books, space, cand)
                assert det.g_hat == g
                assert tuple(det.bits) == int_to_bits(g - 1, 1) + int_to_bits(value, space.m_bits)

    def test_metric_matches_naive_formula(self):
        # each word's metric scores the block the transmitter sends for it
        rng = np.random.default_rng(15)
        space = ApSpace(M=8, K=2)
        books = generate_set(47, 1, 16, 8)
        cand = build_ml_candidates(space)
        sent = [spread(build_sparse_vector(encode_bits(int_to_bits(w, space.m_bits), space), 8),
                       books[0]) for w in range(2 ** space.m_bits)]
        for _ in range(20):
            y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            fast = _ml_metrics(y, h, books, space, cand)[0]
            naive = np.array([np.sum(np.abs(y - h * x) ** 2) for x in sent])
            assert np.allclose(fast, naive)

    def test_table_for_another_config_rejected(self):
        books = generate_set(61, 2, 32, 8)
        cand = build_ml_candidates(ApSpace(M=8, K=2))
        y = np.ones(32, complex)
        for other_books, space in ((books, ApSpace(M=8, K=3)),
                                   (generate_set(61, 2, 32, 16), ApSpace(M=16, K=2))):
            with pytest.raises(ValueError, match="^cand must be an array of shape "):
                ml_secbim(y, y, other_books, space, cand)
        # books as wide as no pattern of the space: the shared guard names them first
        with pytest.raises(ValueError, match=r"^books must be an array of shape \(\*, \*, 8\)"):
            ml_secbim(y, y, generate_set(61, 2, 32, 16), ApSpace(M=8, K=2), cand)

    def test_one_table_serves_every_g_and_n(self):
        cand = build_ml_candidates(ApSpace(M=8, K=2))
        for g, n in ((1, 16), (2, 32), (4, 64)):
            books = generate_set(61, g, n, 8)
            y = np.ones(n, complex)
            assert ml_secbim(y, y, books, ApSpace(M=8, K=2), cand).bits.size == g.bit_length() - 1 + 5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_table_holds_the_columns_of_every_rank(self, k):
        space = ApSpace(M=9, K=k)
        cand = build_ml_candidates(space)
        assert cand.shape == (space.n_combos, k) and cand.dtype.kind == "i"
        assert [tuple(row + 1) for row in cand] == [rank_to_combo(d, space)
                                                    for d in range(space.n_combos)]

    @pytest.mark.parametrize("g,n,m,k", [(1, 16, 8, 1), (4, 32, 16, 2), (2, 32, 16, 3),
                                         (1, 64, 32, 2), (2, 16, 9, 4), (1, 16, 10, 5)])
    def test_table_equals_the_word_by_word_build(self, g, n, m, k):
        # every (book, word) metric against ||y - h v||^2 over the oracle's blocks
        rng = np.random.default_rng(15)
        books = generate_set(73, g, n, m)
        space = ApSpace(M=m, K=k)
        cand = build_ml_candidates(space)
        rows = reference_ml_candidates(books, space)
        for _ in range(10):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            metrics = _ml_metrics(y, h, books, space, cand)
            naive = np.sum(np.abs(y - h * rows) ** 2, axis=1)
            assert metrics.shape == (g, 2 ** space.m_bits)
            np.testing.assert_allclose(metrics.ravel(), naive, rtol=0,
                                       atol=1e-12 * np.sum(np.abs(y) ** 2 + np.abs(h) ** 2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_decisions_equal_the_word_by_word_build(self, g, k):
        # both channel paths, noisy and noiseless frames: the decision is the
        # first minimum of ||y - h v||^2 over the oracle's blocks
        frames = 0
        for path in ("freq", "time"):
            cfg = SystemConfig(scheme="secbim", G=g, N=32, M=16, K=k, detector="ml", seed=k,
                               channel_path=path)
            rows = reference_ml_candidates(LinkContext.for_config(cfg).books, cfg.space)
            n_words = 2 ** cfg.space.m_bits
            for snr in (0.0, 6.0, 12.0, math.inf):
                ctx = LinkContext.for_config(replace(cfg, ebn0_db=snr))
                rng = np.random.default_rng([g, k, int(snr) if snr < math.inf else 99])
                for _ in range(45):
                    _, _, y, h_freq = transmit_frame(ctx, rng)
                    det = decode_frame(ctx, y, h_freq)
                    g0, word = divmod(int(np.argmin(np.sum(np.abs(y - h_freq * rows) ** 2, axis=1))),
                                      n_words)
                    extended = word >= ctx.space.n_combos
                    d = word - ctx.space.n_combos if extended else word
                    assert (det.g_hat, det.d_hat, det.l_hat) == (g0 + 1, d, 2 if extended else 1)
                    frames += 1
        assert frames == 360

    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_ties_go_to_the_smallest_book_and_word(self, k):
        space = ApSpace(M=16, K=k)
        book = generate_set(79, 1, 32, 16)[0]
        twins = np.stack([book, book])  # every block of book 2 ties with book 1's
        twins.setflags(write=False)
        cand = build_ml_candidates(space)
        rng = np.random.default_rng(21)
        msg = encode_bits(int_to_bits(5, space.m_bits), space)
        _, h_freq = draw_channel(10, 32, rng)
        y = apply_freq(spread(build_sparse_vector(msg, 16), book), h_freq, 0.1, rng)
        det = ml_secbim(y, h_freq, twins, space, cand)
        assert (det.g_hat, det.d_hat) == (1, ml_secbim(y, h_freq, twins[:1], space, cand).d_hat)
        if k == 2:  # a zero block leaves every K = 2 candidate the same energy
            zero = ml_secbim(np.zeros(32, complex), h_freq, twins, space, cand)
            assert (zero.g_hat, zero.d_hat, zero.l_hat) == (1, 0, 1)

    def test_table_is_read_only(self):
        cand = build_ml_candidates(ApSpace(M=16, K=2))
        with pytest.raises(ValueError, match="read-only"):
            cand[0, 0] = 0

    def test_no_books_rejected(self):
        space = ApSpace(M=8, K=2)
        y = np.ones(32, complex)
        with pytest.raises(ValueError, match="^G must be a power of two, got 0$"):
            ml_secbim(y, y, np.zeros((0, 32, 8)), space, build_ml_candidates(space))

    def test_candidate_cap_refusal(self):
        space = ApSpace(M=2048, K=2)  # 2^21 words: over the default cap
        with pytest.raises(ValueError, match="cap"):
            build_ml_candidates(space)

    def test_cap_counts_the_blocks_of_every_book(self):
        # 2^19 words fit under the cap, 4 books of them do not
        space = ApSpace(M=1024, K=2)
        assert 2 ** space.m_bits <= ML_CANDIDATE_CAP < 4 * 2 ** space.m_bits
        y = np.ones(32, complex)
        with pytest.raises(ValueError, match=r"\(G=4, M=1024, K=2\) exceeds the cap"):
            ml_secbim(y, y, np.zeros((4, 32, 1024)), space, None)


class TestNonFiniteInput:
    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    @pytest.mark.parametrize("name,value", [("y_freq", np.nan), ("h_freq", np.nan),
                                            ("y_freq", np.inf)])
    def test_rejected_with_value_error(self, detector, name, value):
        ctx = LinkContext.for_config(SystemConfig(N=32, M=16, detector=detector))
        arrays = {"y_freq": np.ones(32, dtype=complex), "h_freq": np.ones(32, dtype=complex)}
        arrays[name][5] = value
        with pytest.raises(ValueError, match=name):
            decode_frame(ctx, arrays["y_freq"], arrays["h_freq"])


class TestMismatchedLengths:
    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    @pytest.mark.parametrize("y_shape,h_shape,name", [
        ((32,), (16,), "h_freq"),
        ((16,), (32,), "y_freq"),
        ((16,), (16,), "y_freq"),
        ((64,), (64,), "y_freq"),
        ((32, 1), (32,), "y_freq"),
    ], ids=["short-h", "short-y", "both-short", "both-long", "2-D-y"])
    def test_rejected_with_value_error(self, detector, y_shape, h_shape, name):
        # the books and the ML table are N = 32 wide
        ctx = LinkContext.for_config(SystemConfig(N=32, M=16, detector=detector))
        with pytest.raises(ValueError, match=f"^{name} must be an array of shape \\(32,\\)"):
            decode_frame(ctx, np.ones(y_shape, dtype=complex), np.ones(h_shape, dtype=complex))


class TestMalformedBooks:
    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    @pytest.mark.parametrize("bad,message", [
        (lambda books: books[0], r"^books must be an array of shape \(\*, \*, 16\), got \(32, 16\)$"),
        (lambda books: np.concatenate([books, books[:1]]), "^G must be a power of two, got 3$"),
    ], ids=["2-D", "three-books"])
    def test_rejected_by_name(self, detector, bad, message):
        ctx = LinkContext.for_config(SystemConfig(scheme="secbim", G=2, N=32, M=16,
                                                  detector=detector))
        y = np.ones(32, dtype=complex)
        with pytest.raises(ValueError, match=message):
            decode_frame(replace(ctx, books=bad(ctx.books)), y, y)


class TestDecoderInputsNamed:
    """Both decoders share one input guard; each fault names its argument."""

    SPACE = ApSpace(M=32, K=2)

    def decode(self, detector, books, space, params=MmpDfParams()):
        y = np.ones(32, complex)
        if detector == "mmpdf":
            return secbim_decode(y, y, books, space, params)
        return ml_secbim(y, y, books, space, build_ml_candidates(self.SPACE))

    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    @pytest.mark.parametrize("m", [16, 64])
    def test_books_of_another_width_named(self, detector, m):
        # 16 columns once decoded into a word of the 32-column space, from columns 1-16 only
        message = rf"^books must be an array of shape \(\*, \*, 32\), got \(1, 32, {m}\)$"
        with pytest.raises(ValueError, match=message):
            self.decode(detector, generate_set(0, 1, 32, m), self.SPACE)

    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    def test_books_as_a_list_named(self, detector):
        with pytest.raises(ValueError, match=r"^books must be an array of shape \(\*, \*, 32\), got list$"):
            self.decode(detector, generate_set(0, 1, 32, 32).tolist(), self.SPACE)

    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    @pytest.mark.parametrize("name", ["y_freq", "h_freq"])
    def test_received_block_as_a_list_named(self, detector, name):
        # a list y_freq once decoded: the guard now takes arrays only
        books = generate_set(0, 1, 32, 32)
        block = {"y_freq": np.ones(32, complex), "h_freq": np.ones(32, complex)}
        block[name] = block[name].tolist()
        args = (block["y_freq"], block["h_freq"], books, self.SPACE)
        with pytest.raises(ValueError, match=rf"^{name} must be an array of shape \(32,\), got list$"):
            if detector == "mmpdf":
                secbim_decode(*args, MmpDfParams())
            else:
                ml_secbim(*args, build_ml_candidates(self.SPACE))

    @pytest.mark.parametrize("detector", ["mmpdf", "ml"])
    @pytest.mark.parametrize("space", [None, (32, 2), SystemConfig(N=32, M=32)],
                             ids=["None", "tuple", "config"])
    def test_space_not_a_pattern_space_named(self, detector, space):
        with pytest.raises(ValueError, match="^space must be ApSpace, got "):
            self.decode(detector, generate_set(0, 1, 32, 32), space)

    @pytest.mark.parametrize("params", [None, {"omega": 2}, SystemConfig()], ids=["None", "dict", "config"])
    def test_params_not_search_controls_named(self, params):
        with pytest.raises(ValueError, match="^params must be MmpDfParams, got "):
            self.decode("mmpdf", generate_set(0, 1, 32, 32), self.SPACE, params)


class TestScaleInvariance:
    @given(st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_greedy_decisions_unchanged(self, scale):
        rng = np.random.default_rng(19)
        space = ApSpace(M=16, K=2)
        params = MmpDfParams()
        books = generate_set(67, 1, 32, 16)
        n0 = 48 / space.m_bits * 10.0 ** (-5.0 / 10.0)
        value = int(rng.integers(0, 2 ** space.m_bits))
        msg = encode_bits(int_to_bits(value, space.m_bits), space)
        x = spread(build_sparse_vector(msg, 16), books[0])
        _, h_freq = draw_channel(10, 32, rng)
        y = apply_freq(x, h_freq, n0, rng)
        base = secbim_decode(y, h_freq, books, space, params)
        scaled = secbim_decode(scale * y, scale * h_freq, books, space, params)
        assert (base.d_hat, base.l_hat, base.g_hat) == (scaled.d_hat, scaled.l_hat, scaled.g_hat)

    @given(st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_ml_decisions_unchanged(self, scale):
        rng = np.random.default_rng(20)
        space = ApSpace(M=16, K=2)
        books = generate_set(71, 2, 32, 16)
        cand = build_ml_candidates(space)
        n0 = 48 / (1 + space.m_bits) * 10.0 ** (-5.0 / 10.0)
        msg = encode_bits(int_to_bits(9, space.m_bits), space)
        x = spread(build_sparse_vector(msg, 16), books[1])
        _, h_freq = draw_channel(10, 32, rng)
        y = apply_freq(x, h_freq, n0, rng)
        base = ml_secbim(y, h_freq, books, space, cand)
        scaled = ml_secbim(scale * y, scale * h_freq, books, space, cand)
        assert (base.d_hat, base.l_hat, base.g_hat) == (scaled.d_hat, scaled.l_hat, scaled.g_hat)
