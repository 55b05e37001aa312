"""Settings for the whole test session, applied before any test module loads,
and the fixtures that more than one test module uses.

One BLAS thread per process. Timed tests compare decode times (for
example ``test_ml_time_scales_with_books``). With threaded BLAS each
product is split over every core and waits for the slowest, so on a busy
host the measured ratios follow the host load, not the code. numpy reads
these variables when it is first imported, which happens after this file
runs; a value already set in the environment is kept, so a run can still
choose threaded BLAS (the CI workflow runs the contract, detector and
sweep tests that way too).
"""
import os
import time

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def detector_ns(monkeypatch):
    """A function that runs ``run_timing(configs, **kwargs)`` and returns the
    nanoseconds spent inside ``svcim.detectors.<name>``, keyed by the config
    whose decode made the call. One part of a decode is timed apart from its
    fixed cost (input checks, the channel factor, the decision, the bits),
    which does not grow with that part and would pull a time ratio toward 1."""
    from svcim import detectors, harness

    decode, originals = harness.decode_frame, {}
    current = []

    def run(configs, name, **kwargs):
        inner = originals.setdefault(name, getattr(detectors, name))
        spent = {cfg: 0 for cfg in configs}

        def noted(ctx, y_freq, h_freq):
            current[:] = [ctx.cfg]
            return decode(ctx, y_freq, h_freq)

        def timed(*args):
            t0 = time.perf_counter_ns()
            out = inner(*args)
            spent[current[0]] += time.perf_counter_ns() - t0
            return out

        monkeypatch.setattr(harness, "decode_frame", noted)
        monkeypatch.setattr(detectors, name, timed)
        harness.run_timing(configs, **kwargs)
        return spent

    return run


@pytest.fixture
def search_ns_by_books(detector_ns):
    """A function that runs ``run_timing(configs, **kwargs)`` and returns the
    nanoseconds its MMP-DF searches took, keyed by the book count G of the
    decode they served: the G searches of a decode, timed apart from its
    fixed cost, which all books share."""
    def run(configs, **kwargs):
        return {cfg.G: ns for cfg, ns in detector_ns(configs, "mmp_df", **kwargs).items()}

    return run
