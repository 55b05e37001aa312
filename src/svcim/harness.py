"""Monte Carlo BER sweeps, detector timing and result emission.

Sweeps shard each point into fixed-size blocks of trials. Shard ``i`` of
point ``p`` owns the generator seeded by ``(seed, tag, p, i)``, and a point
stops after the first shard (in shard order) at which the accumulated bit
errors reach ``min_errors`` or the trial cap is hit. Because shards are
always consumed in index order, the counts are byte-reproducible for a
fixed plan and seed regardless of the worker count; wall-clock timing is
the one intentionally nondeterministic field and can be disabled when a
reproducible CSV is needed.

Timing uses median-of-means over batches after a warm-up, single worker,
with the random frame inputs generated outside the timed region and the
batches interleaved across the measured configurations.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import islice, starmap

import numpy as np

from .codebook import require_at_least, require_field_types, require_type
from .link import (
    LinkContext,
    SystemConfig,
    bits_per_symbol,
    decode_frame,
    field_types,
    parse_fields,
    run_frame,
    transmit_frame,
)

WORKERS_ENV = "SVCIM_WORKERS"

_FRAME_STREAM_TAG = 0xF4A3
_TIMING_STREAM_TAG = 0x71E0

SWEEP_AXES = ("ebn0", "N", "M", "G")


@dataclass(frozen=True)
class SweepPlan:
    """One BER experiment: a base config and the axis swept over it."""

    base: SystemConfig
    sweep_axis: str
    values: tuple
    min_errors: int = 100
    max_trials: int = 100_000
    shard_trials: int = 512

    def __post_init__(self) -> None:
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        require_type(self.base, SystemConfig, "base")
        # a string is the text of one value, and a dict or a set has no order
        # to sweep in: none of them is a sequence of values. Read as objects,
        # a ragged list is one too, and its items meet the field's type rule
        if np.ndim(np.array(self.values, dtype=object)) != 1:
            raise ValueError(f"values must be a sequence of axis values, got {self.values!r}")
        # values as SystemConfig stores them; every config is validated
        # before any simulation
        object.__setattr__(self, "values", tuple(
            getattr(self.config_at(value), self.axis_field) for value in self.values))
        if not self.values:
            raise ValueError("sweep needs at least one value")
        for name in ("min_errors", "max_trials", "shard_trials"):
            object.__setattr__(self, name, require_at_least(
                require_type(getattr(self, name), int, name), 1, name))

    @property
    def axis_field(self) -> str:
        """The SystemConfig field the sweep axis sets."""
        return "ebn0_db" if self.sweep_axis == "ebn0" else self.sweep_axis

    def config_at(self, value) -> SystemConfig:
        """The base config with the axis field set to ``value``: text is read
        by the field's type, a number goes to SystemConfig as it is."""
        if isinstance(value, str):
            value = parse_fields(SystemConfig, {self.axis_field: value})[self.axis_field]
        return replace(self.base, **{self.axis_field: value})


@dataclass(frozen=True)
class BerRecord:
    """One Monte Carlo result row; ``m``, ``ber`` and ``ci95`` are derived.

    A row that no run can produce (a field of the wrong type, no trials, bit
    errors outside [0, trials * m], a negative or NaN time) is a
    ``ValueError`` naming the field, also when it is read from a file.
    """

    config: SystemConfig
    trials: int
    bit_errors: int
    wall_ns_per_decode: float

    def __post_init__(self) -> None:
        require_field_types(self)
        require_at_least(self.trials, 1, "trials")
        if not 0 <= self.bit_errors <= self.trials * self.m:
            raise ValueError(f"bit_errors must lie in [0, trials * m] = "
                             f"[0, {self.trials * self.m}], got {self.bit_errors}")
        require_at_least(self.wall_ns_per_decode, 0, "wall_ns_per_decode")

    @property
    def m(self) -> int:
        return bits_per_symbol(self.config)

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.trials * self.m)

    @property
    def ci95(self) -> float:
        return binomial_ci95(self.ber, self.trials * self.m)


@dataclass(frozen=True)
class TimingRecord:
    """Median-of-means decode time for one config (detector included)."""

    config: SystemConfig
    decodes: int
    mean_ns: float
    spread_ns: float  # standard deviation across batch means


def binomial_ci95(ber: float, n_bits: int) -> float:
    """Normal-approximation 95% half-width, 1.96 sqrt(p(1-p)/n).

    ``n_bits`` is an int >= 1 and ``ber`` a number in [0, 1]; anything else,
    a NaN BER included, is a ``ValueError`` naming the argument.
    """
    n_bits = require_at_least(require_type(n_bits, int, "n_bits"), 1, "n_bits")
    ber = require_type(ber, float, "ber")
    if not 0.0 <= ber <= 1.0:  # NaN fails too
        raise ValueError(f"ber must lie in [0, 1], got {ber}")
    return 1.96 * math.sqrt(ber * (1.0 - ber) / n_bits)


def _worker_count(workers: int | None) -> int:
    if workers is None:
        name, text = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    else:
        name, workers = "workers", require_type(workers, int, "workers")
    return require_at_least(workers, 1, name)


def _run_shard(cfg: SystemConfig, point_idx: int, shard_idx: int,
               n_trials: int) -> tuple[int, int, int]:
    """Simulate one shard; returns (trials, bit_errors, decode_ns_total)."""
    ctx = LinkContext.for_config(cfg)
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _FRAME_STREAM_TAG, point_idx, shard_idx))
    )
    errors = 0
    decode_ns = 0
    for _ in range(n_trials):
        trace = run_frame(cfg, rng, ctx)
        errors += int(np.count_nonzero(trace.tx_bits != trace.detection.bits))
        decode_ns += trace.decode_ns
    return n_trials, errors, decode_ns


def _shard_results(pool, workers: int, plan: SweepPlan, cfg: SystemConfig, point_idx: int):
    """A point's shard results in shard order: in-process without a pool,
    otherwise from ``pool`` with at most ``workers`` shards submitted and
    unfinished. A shard is submitted only when the consumer asks for the
    next result; those still running when it stops are left to finish."""
    jobs = ((cfg, point_idx, i, min(plan.shard_trials, plan.max_trials - start))
            for i, start in enumerate(range(0, plan.max_trials, plan.shard_trials)))
    if pool is None:
        yield from starmap(_run_shard, jobs)
        return
    window = deque(pool.submit(_run_shard, *job) for job in islice(jobs, workers))
    while window:
        yield window.popleft().result()
        window.extend(pool.submit(_run_shard, *job) for job in islice(jobs, 1))


def run_ber_sweep(plan: SweepPlan, workers: int | None = None,
                  measure_time: bool = True) -> list[BerRecord]:
    """Run every sweep point to its stop criterion and return the records.

    One accumulation loop serves every worker count; with more than one
    worker, one process pool runs the shards of the whole sweep. Every
    decode is timed; ``wall_ns_per_decode`` is the mean of those times, or
    0.0 with ``measure_time=False``, which makes the CSV reproducible.
    """
    require_type(measure_time, bool, "measure_time")
    workers = _worker_count(workers)
    records = []
    pool_cm = nullcontext()
    if workers > 1:
        # imported here, so that a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool_cm = ProcessPoolExecutor(workers)
    with pool_cm as pool:
        for point_idx, value in enumerate(plan.values):
            cfg = plan.config_at(value)
            trials = bit_errors = decode_ns = 0
            # consumed strictly in shard order, so the stop point does not
            # depend on scheduling
            for t, e, ns in _shard_results(pool, workers, plan, cfg, point_idx):
                trials += t
                bit_errors += e
                decode_ns += ns
                if bit_errors >= plan.min_errors:
                    break
            wall_ns = decode_ns / trials if measure_time else 0.0
            records.append(BerRecord(config=cfg, trials=trials, bit_errors=bit_errors,
                                     wall_ns_per_decode=wall_ns))
    return records


def run_timing(configs, decodes: int = 1000, warmup: int = 50,
               batches: int = 10) -> list[TimingRecord]:
    """Measure per-decode wall clock for each config, its detector included.

    Frames (message, channel, noise draws) are generated outside the timed
    region; only the detector call is timed: ``warmup`` decodes per config
    first, then ``decodes`` split into ``batches`` equal batches (it must be
    a multiple of ``batches``) whose median batch mean is reported. Batches
    are interleaved round-robin across the configs in the order given, so
    that a transient slowdown of the host hits every config alike and
    cancels out of time ratios.
    """
    for name, value in (("batches", batches), ("decodes", decodes), ("warmup", warmup)):
        require_type(value, int, name)
    require_at_least(batches, 1, "batches")
    if decodes < 1 or decodes % batches:
        raise ValueError(f"decodes must be a positive multiple of batches ({batches}), got {decodes}")
    require_at_least(warmup, 0, "warmup")
    if not np.iterable(configs):
        raise ValueError(f"configs must be an iterable of SystemConfig, got {configs!r}")
    runs = []  # (ctx, rng, batch means) per config
    for i, cfg in enumerate(configs):
        require_type(cfg, SystemConfig, f"configs[{i}]")
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _TIMING_STREAM_TAG)))
        runs.append((LinkContext.for_config(cfg), rng, []))
    if not runs:
        raise ValueError("configs must hold at least one config")
    per_batch = decodes // batches
    for batch in range(batches + 1):  # batch 0 warms every config up
        n = warmup if batch == 0 else per_batch
        if n == 0:
            continue
        for ctx, rng, means in runs:
            inputs = [transmit_frame(ctx, rng)[2:] for _ in range(n)]
            t0 = time.perf_counter_ns()
            for y_freq, h_freq in inputs:
                decode_frame(ctx, y_freq, h_freq)
            elapsed = time.perf_counter_ns() - t0
            if batch > 0:
                means.append(elapsed / n)
    return [
        TimingRecord(config=ctx.cfg, decodes=per_batch * batches,
                     mean_ns=float(np.median(means)), spread_ns=float(np.std(means)))
        for ctx, _, means in runs
    ]


# --- CSV and plot emission ---

# Column order is the file format. Columns named like a SystemConfig field
# are written from, and read back into, the record's config.
CSV_COLUMNS = (
    "scheme", "detector", "N", "M", "K", "L", "v", "G", "ebn0_db", "channel_path",
    "seed", "mmp_omega", "mmp_lam", "mmp_upsilon", "mmp_relative_stop",
    "m", "trials", "bit_errors", "ber", "ci95", "wall_ns_per_decode",
)

# Written from BerRecord's properties; on read they are checked, not parsed.
_DERIVED_COLUMNS = ("m", "ber", "ci95")

TIMING_CSV_COLUMNS = tuple(col for col in CSV_COLUMNS if col in field_types(SystemConfig)) + (
    "decodes", "mean_ns", "spread_ns",
)


def _row(rec, columns) -> list[str]:
    """A record as text: config columns from its config, the rest from the record."""
    config_fields = field_types(SystemConfig)
    return [str(getattr(rec.config if col in config_fields else rec, col)) for col in columns]


def write_ber_csv(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(_row(rec, CSV_COLUMNS))


def read_ber_csv(fh) -> list[BerRecord]:
    """Inverse of :func:`write_ber_csv`: reconstructs records exactly.

    The derived columns (``m``, ``ber``, ``ci95``) must hold the text written
    for the parsed record; a row where one differs is a ``ValueError`` naming it.
    """
    record_fields = [name for name in field_types(BerRecord) if name != "config"]
    records = []
    reader = csv.DictReader(fh)
    for row in reader:
        absent = [col for col in CSV_COLUMNS if row.get(col) is None]
        if absent:
            raise ValueError(f"line {reader.line_num} has no cell for column {', '.join(absent)}")
        rec = BerRecord(
            config=SystemConfig(**parse_fields(
                SystemConfig, {name: row[name] for name in field_types(SystemConfig)})),
            **parse_fields(BerRecord, {name: row[name] for name in record_fields}),
        )
        for col, text in zip(_DERIVED_COLUMNS, _row(rec, _DERIVED_COLUMNS)):
            if row[col] != text:
                raise ValueError(f"{col}: the row holds {row[col]!r}, its config and "
                                 f"counts give {text!r}")
        records.append(rec)
    return records


def _series_key(cfg: SystemConfig, axis_field: str):
    return tuple((name, getattr(cfg, name)) for name in field_types(SystemConfig)
                 if name != axis_field)


def plot_description(records, axis_field: str) -> dict:
    """Plot-ready series: x values against BER and log10(BER) per config.

    ``axis_field`` is the SystemConfig field on the x axis, the sweep's
    ``SweepPlan.axis_field``; records that differ only in it form one series,
    whose label leaves it out.
    """
    if axis_field not in field_types(SystemConfig):
        raise ValueError(f"axis_field must be a SystemConfig field, got {axis_field!r}")
    series: dict = {}
    for rec in records:
        cfg = rec.config
        dims = " ".join(f"{name}={getattr(cfg, name)}" for name in ("N", "M", "G")
                        if name != axis_field)
        entry = series.setdefault(
            _series_key(cfg, axis_field),
            {"label": f"{cfg.scheme}/{cfg.detector} {dims}", "x": [], "ber": [], "log10_ber": []},
        )
        entry["x"].append(getattr(cfg, axis_field))
        entry["ber"].append(rec.ber)
        entry["log10_ber"].append(math.log10(rec.ber) if rec.ber > 0 else None)
    return {"x_axis": axis_field, "series": list(series.values())}


def emit_results(records, fmt: str, path, axis_field: str) -> None:
    """Write records to ``path`` as ``csv`` or as a ``plot`` JSON description
    with ``axis_field`` on the x axis."""
    if fmt not in ("csv", "plot"):
        raise ValueError(f"format must be 'csv' or 'plot', got {fmt!r}")
    try:
        if fmt == "csv":
            buf = io.StringIO()
            write_ber_csv(records, buf)
            payload = buf.getvalue()
        else:
            payload = json.dumps(plot_description(records, axis_field), indent=2) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"could not write results to {path}: {exc}") from exc


def write_timing_csv(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TIMING_CSV_COLUMNS)
    for rec in records:
        writer.writerow(_row(rec, TIMING_CSV_COLUMNS))
