"""Settings for the whole test session, applied before any test module loads.

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

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
