"""The benchmark's workloads: one ``SweepPlan`` per name, built from a seed.

Every plan uses the MMP-DF defaults (omega=2, lambda=0.1, upsilon=2), K=2,
L=16 and v=10, and sweeps Eb/N0 on one worker. The seed becomes
``SystemConfig.seed``, so it picks the codebooks and every frame's bits,
taps and noise. Why each workload exists is recorded in ``BENCHMARK.json``.

Each workload runs a fixed frame budget per point, independent of the
seed, so that a run's time measures the code and not how many frames one
seed happened to need. The budget is small enough that one sweep takes
about 0.3 s on a 2-vCPU host, so that the host-speed kernel timed on either
side of it (``hostspeed.py``) sees the host speed the sweep ran at.
"""
from __future__ import annotations

from dataclasses import dataclass

from svcim import SweepPlan, SystemConfig

# A fixed budget is the plan's trial cap with an error target no point can
# reach (it exceeds trials x bits per frame).
UNREACHABLE_ERRORS = 1 << 40
SHARD_TRIALS = 512


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict  # SystemConfig fields other than the seed
    ebn0: tuple
    frames_per_point: int

    def plan(self, seed: int) -> SweepPlan:
        return SweepPlan(SystemConfig(seed=seed, **self.base), "ebn0", self.ebn0,
                         min_errors=UNREACHABLE_ERRORS, max_trials=self.frames_per_point,
                         shard_trials=SHARD_TRIALS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("esvc-mmpdf", dict(scheme="esvc", N=128, M=128), (0.0, 4.0, 8.0), 256),
        Workload("secbim-g4", dict(scheme="secbim", G=4, N=128, M=128), (0.0, 4.0, 8.0), 128),
        Workload("ml-time", dict(scheme="esvc", detector="ml", N=64, M=32, channel_path="time"),
                 (0.0, 4.0, 8.0), 512),
    )
}
