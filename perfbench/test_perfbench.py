"""Tests of the benchmark itself: its command on every workload, and its
tracer on tiny plans.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import svcim.detectors  # noqa: E402
import svcim.harness  # noqa: E402
import svcim.link  # noqa: E402
import tracing  # noqa: E402
from svcim import SweepPlan, SystemConfig, run_ber_sweep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 48  # frames per point


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny_plan(**cfg) -> SweepPlan:
    return SweepPlan(SystemConfig(N=32, M=32, seed=3, **cfg), "ebn0", (0.0, 8.0),
                     min_errors=1 << 40, max_trials=TINY, shard_trials=16)


def wrapped_attributes():
    targets = tracing.FRAME_TARGETS + tracing.SETUP_TARGETS + (
        ("", svcim.detectors, "mmp_df"), ("", svcim.harness, "run_frame"),
        ("", svcim.harness, "run_ber_sweep"))
    snapshot = {(module.__name__, attr): vars(module)[attr] for _, module, attr in targets}
    snapshot[("LinkContext", "for_config")] = vars(svcim.link.LinkContext)["for_config"]
    return snapshot


def test_spec_names_the_workloads_and_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in spec:
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("failed_frac 0.0 ") for line in lines)
    # seed 5 is stored, so the sweeps were checked against golden.json
    assert "# reference: golden counts" in lines
    manifest = json.loads((HERE / "out" / f"manifest-{workload}-seed5-trace{trace}.json")
                          .read_text())
    assert manifest["reference"] == "golden" and manifest["result"] == result


def test_a_seed_without_goldens_is_checked_against_the_other_worker_count():
    seed = "1000"
    assert seed not in json.loads((HERE / "golden.json").read_text())["ml-time"]
    out = bench("--workload", "ml-time", "--seed", seed, "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"]
    assert "# reference: workers counts" in lines
    manifest = json.loads((HERE / "out" / f"manifest-ml-time-seed{seed}-trace1.json")
                          .read_text())
    assert manifest["reference"] == "workers"


def test_golden_counts_match_on_a_stored_seed():
    golden = json.loads((HERE / "golden.json").read_text())
    seed = "0"
    for name, workload in WORKLOADS.items():
        assert len(golden[name]) >= 2
        plan = workload.plan(int(seed))
        assert [c[0] for c in golden[name][seed]] == [
            workload.frames_per_point] * len(plan.values)
    ml = WORKLOADS["ml-time"]
    got = run.counts(run_ber_sweep(ml.plan(0), workers=1, measure_time=False))
    assert got == golden["ml-time"][seed]


@pytest.mark.parametrize("cfg", [dict(), dict(scheme="secbim", G=2),
                                 dict(detector="ml", channel_path="time")])
def test_traced_counts_equal_untraced_and_wrappers_are_restored(cfg):
    plan = tiny_plan(**cfg)
    before = wrapped_attributes()
    untraced = run.counts(run_ber_sweep(plan, workers=1, measure_time=False))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert svcim.harness.run_frame is not before[("svcim.harness", "run_frame")]
        traced_records = svcim.harness.run_ber_sweep(plan, workers=1, measure_time=False)
    assert run.counts(traced_records) == untraced
    after = wrapped_attributes()
    assert all(after[key] is before[key] for key in before)

    metrics = tracer.metrics()
    assert set(metrics) | {"trace.untraced_frames_per_s", "trace.traced_frames_per_s"} == {
        m["name"] for m in SPEC["per_layer"]}
    assert len(tracer.outcomes) == TINY * len(plan.values)
    if cfg.get("detector") == "ml":
        assert metrics["detectors.ml_us"] > 0 and metrics["transceiver.ofdm_us"] > 0
        assert metrics["detectors.searches_per_frame"] == 0
    else:
        assert metrics["detectors.searches_per_frame"] == cfg.get("G", 1)
        assert metrics["detectors.search_us"] > 0 and metrics["detectors.ml_us"] == 0


def test_wrappers_are_restored_when_the_sweep_raises():
    before = wrapped_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("boom")
    after = wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_stop_reasons_follow_the_noise_level():
    noiseless = SweepPlan(SystemConfig(N=32, M=32, seed=3), "ebn0", (float("inf"),),
                          min_errors=1 << 40, max_trials=TINY, shard_trials=16)
    noisy = SweepPlan(SystemConfig(N=32, M=32, seed=3), "ebn0", (0.0,),
                      min_errors=1 << 40, max_trials=TINY, shard_trials=16)
    for plan, reason in ((noiseless, "threshold"), (noisy, "budget")):
        tracer = tracing.Tracer()
        with tracer.installed():
            svcim.harness.run_ber_sweep(plan, workers=1, measure_time=False)
        assert tracer.metrics()[f"detectors.stop_{reason}_frac"] == 1.0


def test_rescale_divides_by_the_chunks_on_either_side():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.rescale([1.0, 2.0], [ref, 3 * ref, ref]) == [0.5, 1.0]
    with pytest.raises(ValueError):
        hostspeed.rescale([1.0], [ref])
    assert hostspeed.HostSpeed().chunk() > 0


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans = [("a", 0, 100, -1, None), ("b", 10, 40, 0, None), ("c", 15, 25, 1, None),
                    ("d", 50, 60, 0, None)]
    assert tracer.self_ns() == [60, 20, 10, 10]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "esvc-mmpdf", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
