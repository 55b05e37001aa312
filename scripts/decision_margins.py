#!/usr/bin/env python3
"""How close the benchmark's golden decisions sit to a tie, and how far a change moved them.

    PYTHONPATH=src python scripts/decision_margins.py [--seeds N] [--against DIR]

Runs the stored golden seeds of every workload in ``perfbench/workloads.py``
(``perfbench/golden.json``) serially, as ``scripts/check_golden.py`` does.
Nothing in ``src/`` knows about it: like the benchmark's tracer, it wraps
three attributes of ``svcim.detectors`` from outside. ``mmp_df`` yields each
search's input and result, and ``tests/oracles.reference_mmp_df`` reruns the
search to see every leaf it scores; ``secbim_joint_metrics`` and
``_ml_metrics`` yield each decode's decision metrics. Per workload it prints:

- leaf gap: the smallest gap between the two best leaf residuals of one
  search, over ||y_hat||
- stop gap: the smallest distance of any leaf residual from the stop level,
  over ||y_hat||
- metric gap: the smallest gap between the two smallest decision metrics of
  one decode (the 2G of MMP-DF, the G 2^m of ML), over the smallest one
- supports differing: searches whose support differs from the oracle's, or
  from the other tree's

With ``--against DIR``, the same sweeps also run, in lockstep, on the svcim
of another checkout (``DIR/src``), and it prints the largest change of any
returned residual (over ||y_hat||), amplitude (over the search's largest
amplitude) and metric (over the decode's smallest metric) between the two
trees. The wrappers see only the returned residual of a search in the other
tree, and it stands for the leaves not returned. Then both sides of a gap
move by at most the largest change, so no decision can have flipped when
twice each change is below its gap; the verdict line says whether that
holds or names a possible flip. An ML workload runs no search, so only its
metric lines print. Exits 1 on a possible flip or a differing support.
"""
from __future__ import annotations

import argparse
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def emit(seeds: int | None, with_leaves: bool) -> None:
    """Child: pickle one record per decode to stdout, (workload, searches, metrics).

    A search is (||y_hat||, residual, coeffs, support, stop level, leaves):
    with ``with_leaves``, leaves is (the oracle's support, its leaf residuals)."""
    import json

    import svcim.detectors as det
    from svcim import run_ber_sweep

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    if with_leaves:
        import oracles
    out = sys.stdout.buffer
    search, joint, ml = det.mmp_df, det.secbim_joint_metrics, det._ml_metrics
    searches: list = []
    workload = [""]

    def record(metrics):
        pickle.dump((workload[0], searches[:], np.array(metrics, dtype=float)), out)
        searches.clear()

    def oracle_leaves(y_hat, psi, params):
        residuals = []

        def fit(a, cols, y):  # the oracle fits every node: keep the depth-k fits
            result = oracles._ls_fit(a, cols, y)
            if len(cols) == psi.k:
                residuals.append(math.inf if result is None else float(np.linalg.norm(result[1])))
            return result

        ref = oracles.reference_mmp_df(y_hat, psi, params, fit=fit)
        return ref.support, residuals

    def wrapped_search(y_hat, psi, params):
        est = search(y_hat, psi, params)
        norm = float(np.linalg.norm(y_hat))
        leaves = oracle_leaves(y_hat, psi, params) if with_leaves else None
        searches.append((norm, est.residual_norm, est.coeffs, est.support,
                         params.lam * (norm if params.relative_stop else 1.0), leaves))
        return est

    def wrapped_joint(*args):
        metrics, estimates = joint(*args)
        record(metrics)
        return metrics, estimates

    def wrapped_ml(*args):
        metrics = ml(*args)
        record(metrics)
        return metrics

    det.mmp_df, det.secbim_joint_metrics, det._ml_metrics = wrapped_search, wrapped_joint, wrapped_ml
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    for name, spec in WORKLOADS.items():
        workload[0] = name
        for seed in list(golden[name])[:seeds]:
            run_ber_sweep(spec.plan(int(seed)), workers=1, measure_time=False)
    out.flush()


class Margins:
    """One workload's smallest gaps and, against another tree, largest changes."""

    def __init__(self):
        self.searches = self.decodes = self.differing = 0
        self.leaf_gap = self.stop_gap = self.metric_gap = math.inf
        self.residual = self.amplitude = self.metric = 0.0

    def add(self, record, other=None) -> None:
        _, searches, metrics = record
        self.decodes += 1
        best, second = np.partition(metrics.ravel(), 1)[:2]
        scale = best if best > 0 else 1.0
        self.metric_gap = min(self.metric_gap, (second - best) / scale)
        if other is not None:
            self.metric = max(self.metric, float(np.abs(metrics - other[2]).max()) / scale)
        for i, search in enumerate(searches):
            norm, resid, coeffs, support, stop_level, (ref_support, leaves) = search
            self.searches += 1
            self.differing += support != ref_support
            finite = sorted(r for r in leaves if r < math.inf)
            if len(finite) > 1:
                self.leaf_gap = min(self.leaf_gap, (finite[1] - finite[0]) / norm)
            if finite:
                self.stop_gap = min(self.stop_gap, min(abs(r - stop_level) for r in finite) / norm)
            if other is None:
                continue
            _, o_resid, o_coeffs, o_support, _, _ = other[1][i]
            self.differing += support != o_support
            if resid != o_resid:  # equal infinities change nothing
                self.residual = max(self.residual, abs(resid - o_resid) / norm)
            peak = float(np.abs(coeffs).max()) or 1.0
            self.amplitude = max(self.amplitude, float(np.abs(coeffs - o_coeffs).max()) / peak)

    def held(self) -> bool:
        """Twice each change is below its gap."""
        return (2 * self.residual < min(self.leaf_gap, self.stop_gap)
                and 2 * self.metric < self.metric_gap)

    def report(self, name: str, against: bool) -> str:
        searched = self.searches > 0
        lines = [f"{name}: {self.decodes} decodes, {self.searches} searches"]
        if searched:
            lines += [f"  smallest leaf gap        {self.leaf_gap:.3g} ||y_hat||",
                      f"  smallest stop gap        {self.stop_gap:.3g} ||y_hat||"]
        lines.append(f"  smallest metric gap      {self.metric_gap:.3g} of the smallest metric")
        if against and searched:
            lines += [f"  largest residual change  {self.residual:.3g} ||y_hat||",
                      f"  largest amplitude change {self.amplitude:.3g} of the largest amplitude"]
        if against:
            lines += [f"  largest metric change    {self.metric:.3g} of the smallest metric",
                      "  largest change < smallest margin: no decision can flip" if self.held() else
                      "  POSSIBLE FLIP: a change reaches half its margin"]
        if searched:
            lines.append(f"  supports differing       {self.differing}")
        return "\n".join(lines)


def child(src: Path, seeds: int | None, with_leaves: bool) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit"]
    cmd += ["--seeds", str(seeds)] if seeds else []
    cmd += ["--leaves"] if with_leaves else []
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(src)}
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)


def records(proc: subprocess.Popen):
    while True:
        try:
            yield pickle.load(proc.stdout)
        except EOFError:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, help="the first N stored seeds per workload (default all)")
    parser.add_argument("--against", type=Path, help="another checkout, whose src/ to compare with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--leaves", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.seeds, args.leaves)
        return 0
    against = args.against is not None
    procs = [child(ROOT / "src", args.seeds, True)]
    if against:
        procs.append(child(args.against.resolve() / "src", args.seeds, False))
    streams = [records(p) for p in procs]
    margins: dict[str, Margins] = {}
    for recs in zip(*streams):
        margins.setdefault(recs[0][0], Margins()).add(*recs)
    unmatched = [next(s, None) is not None for s in streams]
    if any(unmatched):  # a tree that ran ahead would block on its full pipe: end them all
        for p in procs:
            p.kill()
    codes = [p.wait() for p in procs]
    if any(codes) or any(unmatched):
        print(f"a sweep failed or the trees ran different decodes (exit codes {codes})")
        return 1
    print(f"decision margins of the golden sweeps, {args.seeds or 'all'} seeds per workload"
          + (f", against {args.against}" if against else ""))
    for name, m in margins.items():
        print(m.report(name, against))
    ok = all(m.differing == 0 and (m.held() or not against) for m in margins.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
