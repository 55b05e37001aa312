"""ML's BER against an analytic oracle: the per-channel union bound.

The golden counts and the contract CSV guard regressions only. The bound in
``oracles.ml_union_bound`` derives Eb, the channel power and the candidate
blocks without svcim's link code, so a wrong Eb/N0 normalisation, channel
power or 1/sqrt(K) would move the Monte Carlo BER away from it.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from svcim.link import LinkContext, SystemConfig, bits_per_symbol, run_frame

from oracles import ml_union_bound, rayleigh_responses, reference_ml_candidates

SEED = 2024


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestClosedForms:
    """Toy block sets whose union bound has a closed form, at Eb/N0 = gamma."""

    GAMMA_DB = (0.0, 6.0, 10.0)

    @pytest.mark.parametrize("ebn0_db", GAMMA_DB)
    def test_two_blocks_flat_channel_with_prefix(self, ebn0_db):
        # antipodal blocks on N = 2 bins with a 2-sample prefix: half the
        # energy is the prefix, so the BPSK error rate Q(sqrt(2 gamma)) loses 3 dB
        gamma = 10.0 ** (ebn0_db / 10.0)
        rows = np.array([[1.0, 1.0], [-1.0, -1.0]], dtype=complex)
        bound, half = ml_union_bound(rows, 2, ebn0_db, np.ones((1, 2), dtype=complex))
        assert bound == pytest.approx(_q(math.sqrt(gamma)), rel=1e-12)
        assert half == 0.0

    @pytest.mark.parametrize("ebn0_db", GAMMA_DB)
    def test_two_blocks_rayleigh(self, ebn0_db):
        # one Rayleigh bin: the mean of Q(sqrt(2 |h|^2 gamma)) is (1 - sqrt(gamma / (1 + gamma))) / 2
        gamma = 10.0 ** (ebn0_db / 10.0)
        rows = np.array([[1.0], [-1.0]], dtype=complex)
        h = rayleigh_responses(1, 1, 10_000, np.random.default_rng(SEED))
        bound, half = ml_union_bound(rows, 0, ebn0_db, h)
        assert abs(bound - 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))) <= half
        assert 0.0 < half < 0.1 * bound

    @pytest.mark.parametrize("ebn0_db", GAMMA_DB)
    def test_gray_qpsk_weights_pairs_by_hamming_distance(self, ebn0_db):
        # words 0..3 on (+-1 +-1j)/sqrt(2), Gray-mapped: two neighbours one bit
        # away at distance sqrt(2), the opposite point two bits away at 2
        gamma = 10.0 ** (ebn0_db / 10.0)
        rows = np.array([[1 + 1j], [1 - 1j], [-1 + 1j], [-1 - 1j]]) / math.sqrt(2.0)
        bound, _ = ml_union_bound(rows, 0, ebn0_db, np.ones((1, 1), dtype=complex))
        expected = _q(math.sqrt(2.0 * gamma)) + _q(2.0 * math.sqrt(gamma))
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_rows_must_hold_every_word(self):
        with pytest.raises(ValueError, match="no full set of words"):
            ml_union_bound(np.ones((3, 2), dtype=complex), 0, 0.0, np.ones((1, 2), dtype=complex))


def _bound(cfg: SystemConfig, draws: int) -> tuple[float, float]:
    """The union bound of ``cfg``'s books, over ``draws`` channels of its own."""
    rows = reference_ml_candidates(LinkContext.for_config(cfg).books, cfg.space)
    h = rayleigh_responses(cfg.v, cfg.N, draws, np.random.default_rng(SEED))
    return ml_union_bound(rows, cfg.L, cfg.ebn0_db, h)


def _link_ber(cfg: SystemConfig, frames: int) -> tuple[float, float]:
    """Monte Carlo BER of ``cfg``'s link and its frame-level 95% half-width:
    1.96 standard errors of the per-frame bit-error count, over the bits per frame."""
    ctx = LinkContext.for_config(cfg)
    rng = np.random.default_rng(SEED)
    errors = np.empty(frames)
    for f in range(frames):
        trace = run_frame(cfg, rng, ctx)
        errors[f] = np.count_nonzero(trace.tx_bits != trace.detection.bits)
    m = bits_per_symbol(cfg)
    return errors.mean() / m, 1.96 * errors.std(ddof=1) / math.sqrt(frames) / m


@pytest.mark.parametrize("scheme,g", [("esvc", 1), ("secbim", 2)])
def test_ml_stays_under_the_union_bound_at_8_db(scheme, g):
    cfg = SystemConfig(scheme=scheme, G=g, N=32, M=16, detector="ml", ebn0_db=8.0, seed=SEED)
    bound, bound_half = _bound(cfg, 300)  # the same for both paths
    for path in ("freq", "time"):
        ber, half = _link_ber(replace(cfg, channel_path=path), 3000)
        assert ber <= bound + bound_half + half, (path, ber, half, bound, bound_half)


def test_ml_meets_the_union_bound_at_12_db():
    # four patterns (M = 4) and ten taps keep the bound tight at 12 dB; on
    # this seed n0 off by 1 dB either way moves the Monte Carlo BER out of
    # the combined interval
    cfg = SystemConfig(N=32, M=4, L=16, v=10, detector="ml", ebn0_db=12.0, seed=SEED)
    bound, bound_half = _bound(cfg, 3000)
    ber, half = _link_ber(cfg, 30_000)
    assert abs(ber - bound) <= bound_half + half, (ber, half, bound, bound_half)
