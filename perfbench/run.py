#!/usr/bin/env python3
"""svcim benchmark: time BER sweeps through ``svcim.harness.run_ber_sweep``.

    python3 perfbench/run.py --workload esvc-mmpdf --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: ``frames_per_s`` and
``curve_s`` (medians over the sweeps run back to back for ``--seconds``
after one warm-up sweep), ``setup_s`` (median of fresh processes that import
svcim and build every point's ``LinkContext``, half run before the sweeps
and half after) and ``peak_rss_mb``. Each sweep and set-up time is rescaled
to a nominal host speed by a fixed kernel timed before and after it (see
``hostspeed.py``); the raw wall times go to the ``#`` lines and the
manifest. ``--trace 1``
prints the per-layer metrics of one traced sweep, recorded by wrapping
svcim's public attributes from outside (see ``tracing.py``), and the
tracing overhead from untraced and traced sweeps alternated for
``--seconds``.

Every sweep's ``(trials, bit_errors)`` per point is checked against the
golden counts in ``golden.json`` for the seed, or, for a seed without
goldens, against the same plan run on 2 workers (the harness promises
equal counts for any worker count). Which reference was
used, ``golden`` or ``workers``, is printed on a ``# reference:`` line and
kept in the manifest. The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
sweep points, ``metrics`` maps each metric to its value and unit. The run
writes its manifest and span dump under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy loads, for this process, its setup probes and its
# forked pool workers: threaded BLAS on a 2-core host makes single products
# (spread) take up to 30x longer at random.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 24


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> None:
    """Child process: time ``import svcim`` plus every point's LinkContext."""
    t0 = time.perf_counter()
    import svcim
    from workloads import WORKLOADS

    plan = WORKLOADS[args.workload].plan(args.seed)
    for value in plan.values:
        svcim.LinkContext.for_config(plan.config_at(value))
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> float:
    """Set-up seconds of one fresh process (see ``setup_probe``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    return float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                timeout=120).stdout.split()[-1])


def probe_setups(args, speed, n: int) -> tuple[list[float], list[float]]:
    """``n`` set-up probes between host-speed chunks: (wall, rescaled) seconds."""
    from hostspeed import rescale

    walls, chunks = [], [speed.chunk()]
    for _ in range(n):
        walls.append(measure_setup(args))
        chunks.append(speed.chunk())
    return walls, rescale(walls, chunks)


def counts(records) -> list[list[int]]:
    return [[r.trials, r.bit_errors] for r in records]


class Sweeps:
    """Runs one plan's sweeps, keeping each one's wall time and records."""

    def __init__(self, fn):
        self.fn = fn
        self.runs: list = []  # (wall_s, records), or None for a sweep that raised

    def run(self):
        t0 = time.perf_counter()
        try:
            records = self.fn()
        except Exception:
            traceback.print_exc()
            self.runs.append(None)
            return None
        self.runs.append((time.perf_counter() - t0, records))
        return self.runs[-1]

    def failed_points(self, expected, n_points: int) -> int:
        """Points that raised or whose (trials, bit_errors) differ from ``expected``."""
        failed = 0
        for run in self.runs:
            if run is None:
                failed += n_points
                continue
            got = counts(run[1])
            if got != expected:
                print(f"count mismatch: got {got}, expected {expected}", file=sys.stderr)
                failed += sum(a != b for a, b in zip(got, expected)) or n_points
        return failed


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_describe() -> str | None:
    if not (ROOT / ".git").exists():  # a checkout without history: do not look above it
        return None
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "svcim" / "__init__.py").is_file():
        print(f"svcim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    import numpy as np
    import svcim
    from hostspeed import REFERENCE_S, HostSpeed, rescale
    import svcim.harness
    from workloads import WORKLOADS

    if Path(svcim.__file__).resolve().parent != SRC / "svcim":
        print(f"imported svcim from {svcim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    n_points = len(plan.values)

    def sweep(workers=1):
        return svcim.harness.run_ber_sweep(plan, workers=workers, measure_time=False)

    sweeps = Sweeps(sweep)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = {
        "workload": args.workload, "seed": args.seed, "workers": 1,
        "seconds": args.seconds, "trace": args.trace, "plan": repr(plan),
        "svcim": svcim.__version__, "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_describe": git_describe(), "blas_env": BLAS_ENV,
    }

    if args.trace == 0:
        # Every timed call sits between two chunks of the host-speed kernel
        # and is rescaled by them (see hostspeed.py). Host speed drifts over
        # seconds, so set-up is probed in two halves, before and after the
        # timed sweeps. No probe runs between sweeps: a sweep right after a
        # probe ran measurably slower.
        speed = HostSpeed()
        speed.chunk()  # warm-up
        measure_setup(args)  # warm-up: bytecode and file caches
        setup_walls, setup = probe_setups(args, speed, SETUP_PROBES // 2)
        sweeps.run()  # warm-up: imports, caches, page faults
        # Peak memory through set-up and one sweep. Each later sweep adds
        # about 1 MB of heap fragmentation, which would tie it to speed.
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        chunks = [speed.chunk()]
        deadline = time.perf_counter() + args.seconds
        while True:
            sweeps.run()
            chunks.append(speed.chunk())
            if time.perf_counter() >= deadline:
                break
        more_walls, more_setup = probe_setups(args, speed, SETUP_PROBES - len(setup))
        setup_walls += more_walls
        setup += more_setup
        timed = sweeps.runs[1:]
        scaled = rescale([run[0] if run else 0.0 for run in timed], chunks)
        results = [(s, run[0], run[1]) for s, run in zip(scaled, timed) if run is not None]
        if not results:
            print("no sweep completed", file=sys.stderr)
            return 1
        curve = [s for s, _, _ in results]
        walls = [wall for _, wall, _ in results]
        frames = [sum(r.trials for r in records) for _, _, records in results]
        fps = [f / s for f, s in zip(frames, curve)]
        metrics = {
            "frames_per_s": statistics.median(fps),
            "curve_s": statistics.median(curve),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        samples = {"frames_per_s": fps, "curve_s": curve, "setup_s": setup,
                   "sweep_wall_s": walls, "setup_wall_s": setup_walls,
                   "host_chunk_s": chunks}
        for name, values in samples.items():
            q1, q2, q3 = quartiles(values)
            print(f"# {name}: median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"max {max(values):.6g}, min {min(values):.6g}, n={len(values)}")
        manifest["samples"] = samples
        manifest["reference_s"] = REFERENCE_S
    else:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            for value in plan.values:
                svcim.LinkContext.for_config(plan.config_at(value))
        sweeps.run()  # warm-up, untraced
        # Alternate untraced and traced sweeps for the overhead figure; the
        # per-layer metrics come from the first traced sweep, and later
        # tracers only time the wrappers (their spans are dropped).
        untraced, traced, current = [], [], tracer
        deadline = time.perf_counter() + args.seconds
        while True:
            untraced.append(sweeps.run())
            with current.installed():
                traced.append(sweeps.run())
            current = Tracer()
            if time.perf_counter() >= deadline:
                break
        if None in untraced or None in traced:
            print("a traced or untraced sweep raised", file=sys.stderr)
            return 1
        metrics = tracer.metrics()
        frames = sum(r.trials for r in traced[0][1])
        untraced_s = statistics.median(wall for wall, _ in untraced)
        traced_s = statistics.median(wall for wall, _ in traced)
        metrics["trace.untraced_frames_per_s"] = frames / untraced_s
        metrics["trace.traced_frames_per_s"] = frames / traced_s
        print(f"# tracing overhead: {traced_s / untraced_s - 1:+.1%} sweep time "
              f"(median of {len(traced)} traced against {len(untraced)} untraced sweeps)")
        tracer.dump_spans(OUT / f"spans-{tag}.csv")

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    golden = json.loads((HERE / "golden.json").read_text())
    expected = golden.get(args.workload, {}).get(str(args.seed))
    reference = "golden"
    if expected is None:
        reference = "workers"
        expected = counts(sweep(workers=2))
    manifest["reference"] = reference
    print(f"# reference: {reference} counts")
    attempted = n_points * len(sweeps.runs)
    failed = sweeps.failed_points(expected, n_points)
    print(f"failed_frac {failed / attempted!r} frac ({failed} of {attempted} points)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    manifest["result"] = result
    (OUT / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
