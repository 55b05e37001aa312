"""Edge configs: every small link either runs cleanly or is rejected by name.

Hypothesis draws the smallest sizes the link takes (N up to 8, M up to 8,
K up to 4, up to four books), every search control near its floor, both
channel paths, both detectors, and Eb/N0 from deep noise to noiseless.
SystemConfig must either reject a draw with a ValueError that names one of
its fields, or the link must run 20 frames of m bits each with no warning.
"""
import math
import re
import warnings
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svcim.link import CHANNEL_PATHS, DETECTORS, LinkContext, SystemConfig, bits_per_symbol, run_frame

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
