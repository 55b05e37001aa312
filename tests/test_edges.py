"""Edge inputs: every small link either runs cleanly or is rejected by name,
and so is every bounded scalar of the frame chain.

Hypothesis draws the smallest sizes the link takes (N up to 8, M up to 8,
K up to 4, up to four books), every search control near its floor, both
channel paths, both detectors, and Eb/N0 from deep noise to noiseless.
SystemConfig must either reject a draw with a ValueError that names one of
its fields, or the link must run 20 frames of m bits each with no warning.

The scalar tables below hold one call per bounded scalar argument of the
chain: each is taken by the type rule first (a wrong type is a ValueError
that starts with the argument's name, and a numpy scalar gives the result
of the number it holds, byte for byte), and each range is one form,
"name must lie in [low, high], got value".
"""
import math
import re
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svcim.channel import apply_freq, apply_time, draw_channel
from svcim.detectors import Sensing
from svcim.harness import BerRecord, binomial_ci95
from svcim.index_codec import ApSpace, SparseMessage, decode_to_bits, encode_bits, int_to_bits, rank_to_combo
from svcim.link import CHANNEL_PATHS, DETECTORS, LinkContext, SystemConfig, bits_per_symbol, run_frame
from svcim.transceiver import build_sparse_vector, ofdm_demodulate, ofdm_modulate

FIELD_NAME = re.compile("|".join(rf"\b{f.name}\b" for f in fields(SystemConfig)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8]),
    m=st.sampled_from([2, 3, 4, 5, 8]),
    k=st.integers(1, 4),
    g=st.sampled_from([1, 2, 4]),
    omega=st.integers(1, 3),
    upsilon=st.sampled_from([1, 2, 5]),
    path=st.sampled_from(CHANNEL_PATHS),
    detector=st.sampled_from(DETECTORS),
    ebn0_db=st.sampled_from([-20.0, 0.0, 30.0, math.inf]),
)
# K = N: every path of a search can meet a zero pivot (the second frame here)
@example(n=4, m=8, k=4, g=1, omega=1, upsilon=1, path="freq", detector="mmpdf", ebn0_db=math.inf)
def test_runs_or_is_rejected_by_name(n, m, k, g, omega, upsilon, path, detector, ebn0_db):
    kwargs = dict(scheme="esvc" if g == 1 else "secbim", N=n, M=m, K=k, L=n - 1,
                  v=min(2, n - 1), G=g, mmp_omega=omega, mmp_upsilon=upsilon,
                  channel_path=path, detector=detector, ebn0_db=ebn0_db)
    try:
        cfg = SystemConfig(**kwargs)
    except ValueError as exc:
        assert FIELD_NAME.search(str(exc)), str(exc)
        return
    ctx = LinkContext.for_config(cfg)
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            trace = run_frame(cfg, rng, ctx)
            assert len(trace.tx_bits) == len(trace.detection.bits) == bits_per_symbol(cfg)


def _rng():
    return np.random.default_rng(7)


_SPACE = ApSpace(M=8, K=2)  # C(8, 2) = 28 ranks, 5-bit words
_X = np.exp(1j * np.arange(16.0))
_TAPS = np.array([0.6, 0.3j, -0.2, 0.1 + 0.1j])
_CFG = SystemConfig(N=32, M=16)  # m = 7 bits per frame

# "function-argument": (the call with that argument set to a value, a valid value)
SCALARS = {
    "draw_channel-v": (lambda v: draw_channel(v, 16, _rng()), 4),
    "draw_channel-n": (lambda n: draw_channel(4, n, _rng()), 16),
    "apply_freq-n0": (lambda n0: apply_freq(_X, _X[::-1].copy(), n0, _rng()), 0.5),
    "apply_time-n0": (lambda n0: apply_time(_X, _TAPS, n0, _rng(), 4), 0.5),
    "apply_time-cp_len": (lambda cp_len: apply_time(_X, _TAPS, 0.5, _rng(), cp_len), 4),
    "ofdm_modulate-cp_len": (lambda cp_len: ofdm_modulate(_X, cp_len), 4),
    "ofdm_demodulate-cp_len": (lambda cp_len: ofdm_demodulate(_X[:12], cp_len), 4),
    "build_sparse_vector-m": (lambda m: build_sparse_vector(SparseMessage((1, 3), False, 0), m), 8),
    "int_to_bits-value": (lambda value: int_to_bits(value, 4), 5),
    "int_to_bits-width": (lambda width: int_to_bits(5, width), 4),
    "rank_to_combo-d": (lambda d: rank_to_combo(d, _SPACE), 17),
    "decode_to_bits-d_hat": (lambda d_hat: decode_to_bits(d_hat, True, _SPACE), 2),
    "encode_bits-g": (lambda g: encode_bits((1, 0, 1, 1, 0), _SPACE, g=g), 2),
    "ApSpace-M": (lambda m: ApSpace(M=m, K=2), 8),
    "ApSpace-K": (lambda k: ApSpace(M=8, K=k), 3),
    "SystemConfig-L": (lambda L: SystemConfig(N=16, M=8, L=L, v=2), 4),
    "SystemConfig-v": (lambda v: SystemConfig(N=16, M=8, L=4, v=v), 2),
    "SystemConfig-K": (lambda k: SystemConfig(N=16, M=8, K=k, L=4, v=2), 3),
    "Sensing-k": (lambda k: Sensing(np.ones((4, 3)), np.ones(4), k), 2),
    "binomial_ci95-ber": (lambda ber: binomial_ci95(ber, 40), 0.25),
    "binomial_ci95-n_bits": (lambda n_bits: binomial_ci95(0.25, n_bits), 40),
    "BerRecord-bit_errors": (lambda e: BerRecord(config=_CFG, trials=10, bit_errors=e,
                                                 wall_ns_per_decode=0.0), 3),
}
# 1.5 is a wrong type for an int argument only; a float argument takes it
WRONG_TYPES = [(site, bad) for site, (_, valid) in SCALARS.items() for bad in (1.5, True, "1", None)
               if not (bad == 1.5 and isinstance(valid, float))]


def _fingerprint(result):
    """What a result is, byte for byte: an array's dtype, shape and bytes, and the
    type and repr of anything else (a record's repr shows a numpy scalar it kept)."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, tuple):
        return tuple(_fingerprint(r) for r in result)
    return type(result).__name__, repr(result)


@pytest.mark.parametrize("site,bad", WRONG_TYPES, ids=[f"{site}-{bad!r}" for site, bad in WRONG_TYPES])
def test_wrong_scalar_type_named(site, bad):
    call, valid = SCALARS[site]
    name, tp = site.split("-")[1], type(valid).__name__
    with pytest.raises(ValueError, match=rf"^{name} must be {tp}, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("site", SCALARS)
def test_numpy_scalar_taken_as_its_number(site):
    call, valid = SCALARS[site]
    as_numpy = np.float64(valid) if isinstance(valid, float) else np.int64(valid)
    assert _fingerprint(call(as_numpy)) == _fingerprint(call(valid))


# each bounded scalar of the link, just outside its closed range, and the one message form
RANGES = {
    "draw_channel-v": (lambda: draw_channel(17, 16, _rng()), "v must lie in [1, 16], got 17"),
    "channel-n0": (lambda: apply_freq(_X, _X, -1.0, _rng()),
                   f"n0 must lie in [0, {sys.float_info.max}], got -1.0"),
    "channel-n0-inf": (lambda: apply_time(_X, _TAPS, math.inf, _rng(), 4),
                       f"n0 must lie in [0, {sys.float_info.max}], got inf"),
    "apply_time-taps": (lambda: apply_time(_X, _TAPS, 0.0, _rng(), 3), "tap count must lie in [1, 3], got 4"),
    "apply_time-no-taps": (lambda: apply_time(_X, _TAPS[:0], 0.0, _rng(), 3),
                           "tap count must lie in [1, 3], got 0"),
    "ofdm_modulate-cp_len": (lambda: ofdm_modulate(_X, 16), "cp_len must lie in [0, 15], got 16"),
    "ofdm_demodulate-cp_len": (lambda: ofdm_demodulate(np.zeros(32, complex), 16),
                               "cp_len must lie in [0, 15], got 16"),
    "int_to_bits-value": (lambda: int_to_bits(16, 4), "value must lie in [0, 15], got 16"),
    "int_to_bits-width": (lambda: int_to_bits(0, -1), "width must be >= 0, got -1"),
    "rank_to_combo-d": (lambda: rank_to_combo(28, _SPACE), "d must lie in [0, 27], got 28"),
    "decode_to_bits-d_hat": (lambda: decode_to_bits(-1, False, _SPACE), "d_hat must lie in [0, 27], got -1"),
    "encode_bits-g": (lambda: encode_bits((1, 0, 1, 1, 0), _SPACE, g=0), "g must be >= 1, got 0"),
    "ApSpace-K": (lambda: ApSpace(M=8, K=8), "K must lie in [1, 7], got 8"),
    "SystemConfig-L": (lambda: SystemConfig(N=16, M=8, L=16, v=2), "L must lie in [0, 15], got 16"),
    "SystemConfig-v": (lambda: SystemConfig(N=16, M=8, L=4, v=5), "v must lie in [1, 4], got 5"),
    "SystemConfig-K": (lambda: SystemConfig(N=2, M=5, K=4, L=1, v=1), "K must lie in [1, 2], got 4"),
    "Sensing-k": (lambda: Sensing(np.ones((4, 3)), np.ones(4), 4),
                  "psi k (sparsity) must lie in [1, 3], got 4"),
    "binomial_ci95-ber": (lambda: binomial_ci95(1.5, 40), "ber must lie in [0, 1], got 1.5"),
    "BerRecord-bit_errors": (lambda: BerRecord(config=_CFG, trials=10, bit_errors=71, wall_ns_per_decode=0.0),
                             "bit_errors must lie in [0, 70], got 71"),
}


@pytest.mark.parametrize("site", RANGES)
def test_out_of_range_scalar_named_with_its_bounds(site):
    call, message = RANGES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
