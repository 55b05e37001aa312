"""Config validation, bit-budget arithmetic, shared tables and frame orchestration."""
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcim import detectors, link
from svcim.index_codec import symbol_rows
from svcim.link import (
    DETECTORS,
    LinkContext,
    SystemConfig,
    bits_per_symbol,
    config_from_text,
    config_to_text,
    run_frame,
    spectral_efficiency,
    transmit_frame,
)

NOISELESS = float("inf")


class TestSystemConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.scheme == "esvc" and cfg.G == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=48),  # not a power of two
            dict(K=0),
            dict(K=64, M=64),
            dict(L=64),  # L >= N
            dict(v=0),
            dict(v=17),  # v > L
            dict(G=3),
            dict(G=2),  # esvc needs G = 1
            dict(scheme="other"),
            dict(detector="genie"),
            dict(channel_path="air"),
            dict(mmp_omega=0),  # search controls are validated too
            dict(ebn0_db=float("nan")),
            dict(ebn0_db=float("-inf")),  # +inf is the noiseless limit, -inf is nothing
            dict(ebn0_db=-4000.0),  # n0 = Eb * 10^400 is beyond float range
            dict(mmp_lam=0.0),
            dict(mmp_upsilon=0),
            dict(mmp_lam=float("nan")),
            dict(seed=-1),  # numpy's seed streams take no negative entropy
            # each field takes its own type only
            dict(mmp_omega=2.5),
            dict(v=3.0),
            dict(seed=1.5),
            dict(N=64.0),
            dict(K=2.0),
            dict(G=2.0),
            dict(L=16.0),  # once written as "16.0", which no reader takes
            dict(M=True),
            dict(ebn0_db="10"),
            dict(ebn0_db=True),
            dict(mmp_relative_stop="no"),
            dict(mmp_relative_stop=1),
            dict(scheme=1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        # the message names the first field given
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SystemConfig(**kwargs)

    def test_k_above_n_rejected_by_name(self):
        # K columns of N < K rows are linearly dependent: no search could fit them
        with pytest.raises(ValueError, match=r"^K must be <= N, got K=4, N=2$"):
            SystemConfig(N=2, M=5, K=4, L=1, v=1)
        assert SystemConfig(N=4, M=5, K=4, L=1, v=1).K == 4

    @pytest.mark.parametrize("n, m, l, v", [(4, 4, 3, 2), (32, 16, 16, 10), (128, 128, 16, 10)])
    def test_noise_beyond_the_detectors_rejected_by_name(self, n, m, l, v):
        # at -3,060 dB (n0 >= 1.4e306 here) MMP-DF's squared amplitudes overflowed
        for db in (-3060.0, -3070.0):
            with pytest.raises(ValueError, match=rf"^ebn0_db = {db} gives noise variance n0 = "):
                SystemConfig(N=n, M=m, L=l, v=v, ebn0_db=db)
        for detector in DETECTORS:
            cfg = SystemConfig(N=n, M=m, L=l, v=v, ebn0_db=-3000.0, detector=detector)
            ctx = LinkContext.for_config(cfg)
            rng = np.random.default_rng(0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(50):
                    assert len(run_frame(cfg, rng, ctx).detection.bits) == bits_per_symbol(cfg)

    def test_ml_over_the_candidate_cap_rejected_by_name(self):
        # 2^19 words per book: one book fits under the cap, four do not, and
        # the greedy detector has no cap
        big = dict(scheme="secbim", N=32, M=1024, K=2)
        with pytest.raises(ValueError, match=r"\(G=4, M=1024, K=2\) exceeds the cap"):
            SystemConfig(G=4, detector="ml", **big)
        SystemConfig(G=1, detector="ml", **big)
        SystemConfig(G=4, **big)

    def test_numpy_integers_taken_as_ints(self):
        cfg = SystemConfig(scheme="secbim", N=np.int64(32), M=np.int32(16), G=np.int64(2))
        assert cfg == SystemConfig(scheme="secbim", N=32, M=16, G=2)
        assert all(type(getattr(cfg, name)) is int for name in ("N", "M", "G"))
        assert bits_per_symbol(cfg) == 8

    def test_float_fields_keep_an_int(self):
        # no coercion: the text written for the field stays "4"
        text = config_to_text(SystemConfig(ebn0_db=4, mmp_lam=1))
        assert "\nebn0_db=4\n" in text and "\nmmp_lam=1\n" in text
        # a numpy scalar is stored as the Python number it holds
        cfg = SystemConfig(ebn0_db=np.int64(4), mmp_lam=np.float32(0.5))
        assert (cfg.ebn0_db, cfg.mmp_lam) == (4, 0.5)
        assert (type(cfg.ebn0_db), type(cfg.mmp_lam)) == (int, float)

    @pytest.mark.parametrize("kwargs,field", [(dict(N=1), "L"), (dict(N=1, L=0), "v")])
    def test_one_subcarrier_rejected(self, kwargs, field):
        # N = 1 passes the power-of-two rule and fails on L < N or on 1 <= v <= L
        with pytest.raises(ValueError, match=f"got {field}="):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(K=0), "^K must be >= 1, got 0$"),
        (dict(K=64, M=64), "^K must be < M, got K=64, M=64$"),
        # the config's other lower bounds meet the same rule, in the same form
        (dict(K=-3), "^K must be >= 1, got -3$"),
        (dict(seed=-1), "^seed must be >= 0, got -1$"),
        (dict(mmp_omega=0), "^mmp_omega must be >= 1, got 0$"),
        (dict(mmp_upsilon=-2), "^mmp_upsilon must be >= 1, got -2$"),
    ])
    def test_k_against_m_is_the_pattern_space_rule(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**kwargs)

    def test_hashable_for_caching(self):
        assert len({SystemConfig(), SystemConfig(), SystemConfig(N=128)}) == 2

    def test_space_n0_and_search_controls_derived_once(self):
        cfg = SystemConfig(scheme="secbim", G=2, N=32, M=16, ebn0_db=3.0)
        assert cfg.space is cfg.space and cfg.mmp is cfg.mmp
        assert (cfg.space.M, cfg.space.K) == (16, 2) and cfg.mmp == detectors.MmpDfParams()
        assert LinkContext.for_config(cfg).space is cfg.space
        # not fields: a config equals and hashes like its fields alone
        assert cfg == replace(cfg) and hash(cfg) == hash(replace(cfg))

    def test_pickled_after_the_derived_values_were_read(self):
        # the sweep pool ships configs to its workers this way
        cfg = SystemConfig(scheme="secbim", G=4, N=32, M=16, ebn0_db=5.0, mmp_omega=3)
        n0, mmp = cfg.n0, cfg.mmp
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and hash(back) == hash(cfg)
        assert back.n0 == n0 and back.mmp == mmp and back.space == cfg.space


class TestBitBudget:
    def test_small_reference_config(self):
        cfg = SystemConfig(N=32, M=4, K=2, L=16, v=10)
        assert bits_per_symbol(cfg) == 3

    def test_secbim_adds_codebook_bits(self):
        cfg = SystemConfig(scheme="secbim", N=128, M=128, K=2, G=4)
        # C(128, 2) = 8128 -> floor(log2) = 12 -> 13 pattern bits + 2
        assert bits_per_symbol(cfg) == 15

    def test_g1_matches_single_book_scheme(self):
        single = SystemConfig(N=64, M=64)
        joint = SystemConfig(scheme="secbim", N=64, M=64, G=1)
        assert bits_per_symbol(single) == bits_per_symbol(joint)

    def test_spectral_efficiency_values(self):
        cfg = SystemConfig(N=128, M=128, K=2, L=16)
        assert np.isclose(spectral_efficiency(cfg), 13 / 144)
        cfg = SystemConfig(N=32, M=4, K=2, L=16)
        assert spectral_efficiency(cfg) == 3 / 48

    def test_secbim_efficiency_delta(self):
        base = SystemConfig(N=64, M=64, L=16)
        joint = SystemConfig(scheme="secbim", N=64, M=64, L=16, G=4)
        assert np.isclose(
            spectral_efficiency(joint) - spectral_efficiency(base), 2 / (64 + 16)
        )

    def test_n0_formula(self):
        cfg = SystemConfig(N=64, L=16, M=64, K=2, ebn0_db=10.0)
        assert bits_per_symbol(cfg) == 11
        assert cfg.n0 == 80 / 11 * 10.0 ** -1.0  # Eb = (N + L)/m, then the dB factor
        assert np.isclose(cfg.n0, 80 / 11 * 0.1)

    def test_noiseless_limit(self):
        assert SystemConfig(N=64, L=16, M=64, K=2, ebn0_db=NOISELESS).n0 == 0.0


class TestRunFrame:
    def test_noiseless_loopback(self):
        cfg = SystemConfig(N=64, M=64, ebn0_db=NOISELESS)
        ctx = LinkContext.for_config(cfg)
        for seed in (0, 1, 2, 99):
            trace = run_frame(cfg, np.random.default_rng(seed), ctx)
            assert np.array_equal(trace.tx_bits, trace.detection.bits)

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(N=32, M=32, ebn0_db=4.0)
        ctx = LinkContext.for_config(cfg)
        t1 = run_frame(cfg, np.random.default_rng(5), ctx)
        t2 = run_frame(cfg, np.random.default_rng(5), ctx)
        assert np.array_equal(t1.tx_bits, t2.tx_bits)
        assert np.array_equal(t1.detection.bits, t2.detection.bits)
        assert t1.detection.d_hat == t2.detection.d_hat
        _, _, y1, h1 = transmit_frame(ctx, np.random.default_rng(5))
        _, _, y2, h2 = transmit_frame(ctx, np.random.default_rng(5))
        assert np.array_equal(h1, h2)
        assert np.array_equal(y1, y2)

    def test_bit_budget_conservation(self):
        for cfg in (
            SystemConfig(N=32, M=16, ebn0_db=5.0),
            SystemConfig(scheme="secbim", N=32, M=16, G=4, ebn0_db=5.0),
        ):
            ctx = LinkContext.for_config(cfg)
            trace = run_frame(cfg, np.random.default_rng(0), ctx)
            assert len(trace.tx_bits) == bits_per_symbol(cfg)
            assert len(trace.detection.bits) == bits_per_symbol(cfg)

    def test_secbim_bit_split(self):
        cfg = SystemConfig(scheme="secbim", N=32, M=16, G=8, ebn0_db=NOISELESS)
        ctx = LinkContext.for_config(cfg)
        for seed in range(20):
            trace = run_frame(cfg, np.random.default_rng(seed), ctx)
            m1 = 3
            # leading bits picked the codebook, and the codec saw the rest
            assert trace.msg.g == 1 + int("".join(map(str, trace.tx_bits[:m1])), 2)
            assert np.array_equal(trace.tx_bits, trace.detection.bits)

    def test_channel_paths_agree_without_noise(self):
        freq_cfg = SystemConfig(N=64, M=64, ebn0_db=NOISELESS, channel_path="freq")
        time_cfg = SystemConfig(N=64, M=64, ebn0_db=NOISELESS, channel_path="time")
        ctx_f = LinkContext.for_config(freq_cfg)
        ctx_t = LinkContext.for_config(time_cfg)
        for seed in range(50):
            tf = run_frame(freq_cfg, np.random.default_rng(seed), ctx_f)
            tt = run_frame(time_cfg, np.random.default_rng(seed), ctx_t)
            assert np.array_equal(tf.tx_bits, tt.tx_bits)  # same stream consumption
            assert tf.detection.d_hat == tt.detection.d_hat
            assert tf.detection.l_hat == tt.detection.l_hat
            assert np.array_equal(tf.detection.bits, tt.detection.bits)

    def test_omega_above_the_unused_columns_decodes(self, monkeypatch):
        # at depth 2 of M = 4 only two columns are unused, fewer than omega = 3
        solves = []
        real = detectors.mmp_df

        def logged(y_hat, psi, params):
            est = real(y_hat, psi, params)
            solves.append(est.ls_solves)
            return est

        monkeypatch.setattr(detectors, "mmp_df", logged)
        cfg = SystemConfig(N=4, M=4, K=3, L=1, v=1, mmp_omega=3, mmp_upsilon=5, ebn0_db=-20.0)
        ctx = LinkContext.for_config(cfg)
        rng = np.random.default_rng(0)
        for _ in range(50):
            trace = run_frame(cfg, rng, ctx)
            assert len(trace.detection.bits) == bits_per_symbol(cfg)
        assert len(solves) == 50
        assert max(solves) <= 4  # C(4, 3) distinct supports

    def test_time_path_noisy_loopback_at_high_snr(self):
        cfg = SystemConfig(N=64, M=64, ebn0_db=40.0, channel_path="time")
        ctx = LinkContext.for_config(cfg)
        rng = np.random.default_rng(3)
        for _ in range(50):
            trace = run_frame(cfg, rng, ctx)
            assert np.array_equal(trace.tx_bits, trace.detection.bits)

    @pytest.mark.parametrize("change,differ", [
        (dict(ebn0_db=40.0, detector="ml"), "ebn0_db, detector"),
        (dict(channel_path="time"), "channel_path"),
        (dict(mmp_lam=0.2), "mmp_lam"),
    ])
    def test_context_for_another_config_rejected(self, change, differ):
        cfg = SystemConfig(N=32, M=16, ebn0_db=0.0)
        ctx = LinkContext.for_config(replace(cfg, **change))
        with pytest.raises(ValueError, match=f"another config: {differ} differ from cfg"):
            run_frame(cfg, np.random.default_rng(0), ctx)

    def test_context_is_required(self):
        cfg = SystemConfig(N=32, M=16, ebn0_db=0.0)
        for ctx in (None, cfg):
            with pytest.raises(ValueError, match="^ctx must be the LinkContext built for cfg"):
                run_frame(cfg, np.random.default_rng(0), ctx)

    def test_context_for_an_equal_config_accepted(self):
        cfg = SystemConfig(N=32, M=16, ebn0_db=NOISELESS)
        ctx = LinkContext.for_config(replace(cfg))
        assert ctx.cfg is not cfg
        trace = run_frame(cfg, np.random.default_rng(0), ctx)
        assert np.array_equal(trace.tx_bits, trace.detection.bits)


class TestSearchesPerDecode:
    """Search work per decode, counted on link frames: linear in G, flat in M.

    The deterministic counterpart of the search-time ratio in
    ``test_harness.py::TestRunTiming::test_secbim_time_scales_with_books``.
    """

    FRAMES = 20

    def searches(self, monkeypatch, cfg):
        """Each decode's (sensing, estimate) pairs, one per MMP-DF search."""
        calls = []
        real = detectors.mmp_df

        def counted(y_hat, psi, params):
            est = real(y_hat, psi, params)
            calls.append((psi, est))
            return est

        monkeypatch.setattr(detectors, "mmp_df", counted)
        ctx = LinkContext.for_config(cfg)
        rng = np.random.default_rng(cfg.seed)
        per_decode = []
        for _ in range(self.FRAMES):
            start = len(calls)
            run_frame(cfg, rng, ctx)
            per_decode.append(calls[start:])
        return ctx, per_decode

    @pytest.mark.parametrize("ebn0", [0.0, NOISELESS])
    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_one_search_per_book(self, monkeypatch, g, ebn0):
        cfg = SystemConfig(scheme="secbim", G=g, N=64, M=64, ebn0_db=ebn0, seed=3)
        ctx, per_decode = self.searches(monkeypatch, cfg)
        for decode in per_decode:
            assert len(decode) == g
            # book by book, in book order, each a view of the set
            assert all(np.shares_memory(psi.entries, ctx.books)
                       and np.array_equal(psi.entries, book)
                       for (psi, _), book in zip(decode, ctx.books))
            assert all(1 <= est.ls_solves <= cfg.mmp_upsilon for _, est in decode)

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_one_channel_factor_per_decode(self, monkeypatch, g):
        # one sensing_matrix call per decode; its G factors share one gains array
        factors = []
        real = detectors.sensing_matrix

        def counted(h_freq, books, k):
            psis = real(h_freq, books, k)
            factors.append((h_freq, psis))
            return psis

        monkeypatch.setattr(detectors, "sensing_matrix", counted)
        cfg = SystemConfig(scheme="secbim", G=g, N=64, M=64, ebn0_db=0.0, seed=3)
        _, per_decode = self.searches(monkeypatch, cfg)
        assert len(factors) == self.FRAMES
        for (h_freq, psis), decode in zip(factors, per_decode):
            assert [psi for psi, _ in decode] == psis  # the searches read these factors
            assert all(psi.gains is psis[0].gains for psi in psis)
            expected = h_freq / np.sqrt(cfg.K)  # complex: the block is searched as received
            assert psis[0].gains.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [16, 64, 128])
    def test_one_search_whatever_m(self, monkeypatch, m):
        cfg = SystemConfig(N=64, M=m, ebn0_db=4.0, seed=3)
        _, per_decode = self.searches(monkeypatch, cfg)
        assert [len(decode) for decode in per_decode] == [1] * self.FRAMES
        assert all(1 <= decode[0][1].ls_solves <= cfg.mmp_upsilon for decode in per_decode)


class TestSharedTables:
    BASE = SystemConfig(N=32, M=16, K=2, seed=11, detector="ml")
    # fields outside the tables' keys: (seed, G, N, M) for books, (M, K) for the ML index table
    SAME_TABLES = [dict(ebn0_db=3.0), dict(L=12), dict(v=4), dict(channel_path="time"),
                   dict(mmp_omega=3, mmp_lam=0.2, mmp_upsilon=4, mmp_relative_stop=False)]
    OTHER_TABLES = [dict(seed=12), dict(scheme="secbim", G=2), dict(N=64), dict(M=32)]

    def _pair(self, change):
        return LinkContext.for_config(self.BASE), LinkContext.for_config(replace(self.BASE, **change))

    @pytest.mark.parametrize("change", SAME_TABLES, ids=lambda c: ",".join(c))
    def test_same_books_and_table_when_other_fields_differ(self, change):
        a, b = self._pair(change)
        assert a.books is b.books
        assert a.ml is not None and a.ml is b.ml

    def test_same_books_across_detectors(self):
        a, b = self._pair(dict(detector="mmpdf"))
        assert a.books is b.books and b.ml is None

    @pytest.mark.parametrize("change", OTHER_TABLES, ids=lambda c: ",".join(c))
    def test_books_not_shared_across_seed_g_n_or_m(self, change):
        a, b = self._pair(change)
        assert a.books is not b.books
        # the index table depends on (M, K) alone
        assert (a.ml is b.ml) == ("M" not in change)

    def test_table_not_shared_across_k(self):
        a, b = self._pair(dict(K=3))
        assert a.books is b.books  # books do not depend on K
        assert a.ml is not b.ml and a.ml.shape != b.ml.shape

    def test_shared_arrays_are_read_only(self):
        ctx = LinkContext.for_config(self.BASE)
        shared = [ctx.books, ctx.ml, symbol_rows(ctx.cfg.K)]
        assert not any(arr.flags.writeable for arr in shared)

    def test_index_table_built_once_per_m_and_k(self, monkeypatch):
        # through the module global, so a wrapper around it sees builds only
        calls = []
        monkeypatch.setattr(link, "build_ml_candidates",
                            lambda space: calls.append(space) or detectors.build_ml_candidates(space))
        link._shared_ml_table.cache_clear()
        for change in (dict(), dict(seed=12), dict(N=64), dict(K=3), dict(seed=13, K=3)):
            LinkContext.for_config(replace(self.BASE, **change))
        assert [(space.M, space.K) for space in calls] == [(16, 2), (16, 3)]


class TestConfigText:
    def test_roundtrip_defaults(self):
        cfg = SystemConfig()
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_roundtrip_secbim_ml(self):
        cfg = SystemConfig(
            scheme="secbim", detector="ml", N=128, M=32, K=2, L=20, v=7, G=8,
            ebn0_db=12.5, seed=987654321, channel_path="time",
            mmp_omega=3, mmp_lam=0.05, mmp_upsilon=4, mmp_relative_stop=False,
        )
        assert config_from_text(config_to_text(cfg)) == cfg

    @given(
        n_exp=st.integers(min_value=5, max_value=9),
        m=st.integers(min_value=8, max_value=200),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        ebn0=st.floats(min_value=-30, max_value=60, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random(self, n_exp, m, seed, ebn0):
        cfg = SystemConfig(N=2**n_exp, M=m, ebn0_db=ebn0, seed=seed)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        text = config_to_text(SystemConfig()) + "\n# trailing comment\n\n"
        assert config_from_text(text) == SystemConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_text("bogus=1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            config_from_text("scheme esvc\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="'N'"):
            config_from_text("N=32\nN=64\n")

    def test_unreadable_value_names_the_key(self):
        with pytest.raises(ValueError, match="mmp_relative_stop"):
            config_from_text("mmp_relative_stop=yes\n")
