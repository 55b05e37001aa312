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
def search_ns_by_books(monkeypatch):
    """A function that runs ``run_timing(configs, **kwargs)`` and returns the
    nanoseconds its MMP-DF searches took, keyed by the book count G of the
    decode they served. The G searches of a decode are timed apart from its
    fixed cost (co-phase, input checks, metrics, bits), which all books share."""
    from svcim import detectors
    from svcim.harness import run_timing

    decode, search = detectors.secbim_decode, detectors.mmp_df
    n_books = []

    def run(configs, **kwargs):
        search_ns = {cfg.G: 0 for cfg in configs}

        def noted(y_freq, h_freq, books, space, params):
            n_books[:] = [len(books)]
            return decode(y_freq, h_freq, books, space, params)

        def timed(y_hat, psi, params):
            t0 = time.perf_counter_ns()
            est = search(y_hat, psi, params)
            search_ns[n_books[0]] += time.perf_counter_ns() - t0
            return est

        monkeypatch.setattr(detectors, "secbim_decode", noted)
        monkeypatch.setattr(detectors, "mmp_df", timed)
        run_timing(configs, **kwargs)
        return search_ns

    return run
