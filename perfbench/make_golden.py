#!/usr/bin/env python3
"""Regenerate ``golden.json``: every workload's per-point (trials, bit_errors).

    python3 perfbench/make_golden.py --seeds 0-63 --jobs 2

Each (workload, seed) plan is run serially through ``run_ber_sweep``.
Rerun this only when a workload's plan changes, never to absorb a change in
simulated statistics: a count that moves is a failure of the code under
test.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)


def golden_counts(workload: str, seed: int) -> list[list[int]]:
    from svcim import run_ber_sweep
    from workloads import WORKLOADS

    return run.counts(run_ber_sweep(WORKLOADS[workload].plan(seed), workers=1,
                                    measure_time=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    from workloads import WORKLOADS

    tasks = [(w, seed) for w in WORKLOADS for seed in range(lo, hi + 1)]
    with ProcessPoolExecutor(max_workers=args.jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(golden_counts, *zip(*tasks)))
    golden: dict = {w: {} for w in WORKLOADS}
    for (w, seed), result in zip(tasks, results):
        golden[w][str(seed)] = result
    # one line per (workload, seed), so a diff shows which counts moved
    blocks = [f"  {json.dumps(w)}: {{\n" + ",\n".join(
        f"    {json.dumps(seed)}: {json.dumps(c)}" for seed, c in by_seed.items()) + "\n  }"
        for w, by_seed in golden.items()]
    (HERE / "golden.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
