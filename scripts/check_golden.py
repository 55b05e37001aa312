#!/usr/bin/env python3
"""Check every stored golden seed: rerun each benchmark plan and compare counts.

    PYTHONPATH=src python scripts/check_golden.py

For each workload in ``perfbench/workloads.py`` and each seed stored for it
in ``perfbench/golden.json``, the plan runs serially through
``run_ber_sweep`` and its per-point ``(trials, bit_errors)`` must equal the
stored counts. The file is only read. Prints one line per mismatch and a
summary, and exits 1 if any sweep's counts differ.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads, as the goldens were made)
from workloads import WORKLOADS  # noqa: E402

from svcim import run_ber_sweep  # noqa: E402


def main() -> int:
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    t0 = time.perf_counter()
    sweeps = mismatches = 0
    for name, workload in WORKLOADS.items():
        for seed, expected in golden[name].items():
            got = run.counts(run_ber_sweep(workload.plan(int(seed)), workers=1,
                                           measure_time=False))
            sweeps += 1
            if got != expected:
                mismatches += 1
                print(f"MISMATCH {name} seed {seed}: got {got}, stored {expected}")
    print(f"{sweeps} golden sweeps, {mismatches} mismatched, {time.perf_counter() - t0:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
