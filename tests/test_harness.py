"""Sweep mechanics, interval calibration, CSV/plot emission, timing."""
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from svcim import detectors, harness
from svcim.harness import (
    BerRecord,
    SweepPlan,
    binomial_ci95,
    emit_results,
    plot_description,
    read_ber_csv,
    run_ber_sweep,
    run_timing,
    write_ber_csv,
    write_timing_csv,
)
from svcim.link import SystemConfig, bits_per_symbol, config_to_text

NOISELESS = float("inf")


def small_plan(**overrides):
    defaults = dict(
        base=SystemConfig(N=32, M=16, seed=7),
        sweep_axis="ebn0",
        values=(0.0, 6.0),
        min_errors=25,
        max_trials=400,
        shard_trials=100,
    )
    defaults.update(overrides)
    return SweepPlan(**defaults)


class TestSweepPlan:
    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            small_plan(sweep_axis="taps")

    def test_empty_values(self):
        with pytest.raises(ValueError):
            small_plan(values=())

    def test_derived_configs_validated_before_running(self):
        # sweeping N through a non power of two must fail at plan build
        with pytest.raises(ValueError):
            small_plan(sweep_axis="N", values=(32, 48))

    @pytest.mark.parametrize("name,low,value", [
        ("min_errors", 1, 0), ("max_trials", 1, 0), ("shard_trials", 1, 0), ("trials", 1, 0),
        ("wall_ns_per_decode", 0, -1.0), ("wall_ns_per_decode", 0, math.nan), ("n_bits", 1, 0),
        ("workers", 1, 0), (harness.WORKERS_ENV, 1, -2), ("batches", 1, 0), ("warmup", 0, -1),
    ], ids=["min_errors", "max_trials", "shard_trials", "trials", "wall_ns_per_decode",
            "wall_ns_per_decode-nan", "n_bits", "workers", "workers-env", "batches", "warmup"])
    def test_limit_below_one_named(self, monkeypatch, name, low, value):
        # every lower bound of the harness is one rule in one form: codebook.require_at_least
        monkeypatch.setattr(harness, "_run_shard", None)  # each check comes before any shard
        monkeypatch.setenv(harness.WORKERS_ENV, str(value if name == harness.WORKERS_ENV else 1))
        record = dict(config=SystemConfig(N=32, M=16), trials=1, bit_errors=0, wall_ns_per_decode=0.0)
        timing = dict(configs=[SystemConfig(N=32, M=16)], decodes=20, warmup=0, batches=5)
        plan = small_plan(values=(0.0,), max_trials=100)
        calls = {
            "trials": lambda: BerRecord(**{**record, name: value}),
            "wall_ns_per_decode": lambda: BerRecord(**{**record, name: value}),
            "n_bits": lambda: binomial_ci95(0.1, value),
            "workers": lambda: run_ber_sweep(plan, workers=value, measure_time=False),
            harness.WORKERS_ENV: lambda: run_ber_sweep(plan, measure_time=False),
            "batches": lambda: run_timing(**{**timing, name: value}),
            "warmup": lambda: run_timing(**{**timing, name: value}),
        }
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {value}$"):
            calls.get(name, lambda: small_plan(**{name: value}))()

    @pytest.mark.parametrize("name,value", [
        ("max_trials", 10.5), ("shard_trials", 8.0), ("min_errors", 2.5), ("max_trials", True),
    ])
    def test_limit_type_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be int, got {value}$"):
            small_plan(values=(0.0,), **{name: value})

    @pytest.mark.parametrize("values", ["10", b"10", 5.0, np.array(5.0), None, {0.0: 1}, {0.0, 4.0}],
                             ids=["str", "bytes", "float", "0-d", "None", "dict", "set"])
    def test_values_not_a_sequence_named(self, values):
        # read as characters, "10" would sweep 1 dB and 0 dB; a dict would
        # sweep its keys, and a set in hash order
        with pytest.raises(ValueError, match="^values must be a sequence of axis values, got "):
            small_plan(values=values)

    def test_ragged_values_meet_the_field_rule(self):
        with pytest.raises(ValueError, match=r"^ebn0_db must be float, got \[1\.0\]$"):
            small_plan(values=[0.0, [1.0]])

    @pytest.mark.parametrize("base", [None, {"N": 32}, "SystemConfig()"])
    def test_base_not_a_config_named(self, base):
        with pytest.raises(ValueError, match="^base must be SystemConfig, got "):
            small_plan(base=base)

    def test_numpy_limits_stored_as_ints(self):
        plan = small_plan(max_trials=np.int64(200), shard_trials=np.int32(100))
        assert (plan.max_trials, plan.shard_trials) == (200, 100)
        assert type(plan.max_trials) is int and type(plan.shard_trials) is int

    def test_axis_substitution(self):
        plan = small_plan(sweep_axis="M", values=(16, 64))
        assert plan.config_at(64).M == 64
        assert plan.config_at(64).N == 32

    @pytest.mark.parametrize("axis,value,message", [
        ("M", 32.7, "M must be int, got 32.7"),
        ("ebn0", True, "ebn0_db must be float, got True"),
        ("M", "32.5", "M: cannot read '32.5' as int"),
        ("ebn0", "4 dB", "ebn0_db: cannot read '4 dB' as float"),
    ])
    def test_axis_value_type_named(self, axis, value, message):
        plan = small_plan(base=SystemConfig(N=64, M=32), sweep_axis=axis,
                          values=(32 if axis == "M" else 0.0,))
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan.config_at(value)
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_plan(base=SystemConfig(N=64, M=32), sweep_axis=axis, values=(value,))

    def test_axis_values_as_the_config_stores_them(self):
        # text is read by the field's type, numbers (numpy scalars included)
        # are stored as the Python numbers SystemConfig keeps
        plan = small_plan(values=(4, "6", np.float64(2.5), *np.arange(0, 4, 2)))
        assert plan.values == (4, 6.0, 2.5, 0, 2)
        assert [type(v) for v in plan.values] == [int, float, float, int, int]
        assert "\nebn0_db=4\n" in config_to_text(plan.config_at(4))  # written as given
        m_plan = small_plan(sweep_axis="M", values=(np.int64(8), "16"))
        assert m_plan.values == (8, 16) and {type(v) for v in m_plan.values} == {int}


class TestRunBerSweep:
    def test_effectively_noiseless_point_is_error_free(self):
        # 60 dB leaves per-sample noise ~1e-6: loopback in all but name
        plan = small_plan(
            base=SystemConfig(N=64, M=64, seed=3),
            values=(60.0,),
            min_errors=100,
            max_trials=10_000,
            shard_trials=2_500,
        )
        (rec,) = run_ber_sweep(plan)
        assert rec.trials == 10_000
        assert rec.bit_errors == 0
        assert rec.ber == 0.0

    def test_exactly_noiseless_point(self):
        plan = small_plan(
            base=SystemConfig(N=32, M=32, seed=3),
            values=(NOISELESS,),
            min_errors=100,
            max_trials=1_000,
            shard_trials=500,
        )
        (rec,) = run_ber_sweep(plan)
        assert rec.ber == 0.0

    def test_noise_dominated_point(self):
        plan = small_plan(
            base=SystemConfig(N=32, M=32, seed=5),
            values=(-20.0,),
            min_errors=10_000,
            max_trials=2_000,
            shard_trials=500,
        )
        (rec,) = run_ber_sweep(plan)
        assert abs(rec.ber - 0.5) < 0.05

    def test_stop_criterion_on_errors(self):
        plan = small_plan(values=(0.0,), min_errors=25, max_trials=10_000, shard_trials=50)
        (rec,) = run_ber_sweep(plan)
        assert rec.bit_errors >= 25
        assert rec.trials < 10_000  # stopped early, at a shard boundary
        assert rec.trials % 50 == 0

    def test_deterministic_across_worker_counts(self):
        plan = small_plan(values=(2.0, 8.0))
        serial = run_ber_sweep(plan, workers=1, measure_time=False)
        parallel = run_ber_sweep(plan, workers=4, measure_time=False)
        assert serial == parallel

    def test_measure_time_sets_only_the_wall_column(self):
        plan = small_plan()
        timed = run_ber_sweep(plan)
        untimed = run_ber_sweep(plan, measure_time=False)
        assert all(rec.wall_ns_per_decode > 0 for rec in timed)
        assert [rec.wall_ns_per_decode for rec in untimed] == [0.0, 0.0]
        assert untimed == [replace(rec, wall_ns_per_decode=0.0) for rec in timed]

    def test_in_flight_shards_bounded_by_workers(self, monkeypatch):
        # a fake shard that reaches min_errors at once and records how many
        # shards ran, and how many at the same time, on a pool with spare
        # threads
        ran, running, peak, lock = [], [0], [0], threading.Lock()

        def fake_shard(cfg, point_idx, shard_idx, n_trials):
            with lock:
                ran.append(shard_idx)
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return n_trials, 25, 0

        monkeypatch.setattr(harness, "_run_shard", fake_shard)
        plan = small_plan(values=(0.0,), max_trials=2_000, shard_trials=100)
        cfg = plan.config_at(0.0)
        with ThreadPoolExecutor(8) as pool:
            for result in harness._shard_results(pool, 2, plan, cfg, 0):
                break  # the point stops at its first shard
        assert result == (100, 25, 0)
        assert len(ran) <= 2

        ran.clear()
        with ThreadPoolExecutor(8) as pool:
            results = list(harness._shard_results(pool, 2, plan, cfg, 0))
        assert len(results) == len(ran) == 20
        assert peak[0] <= 2

    def test_records_match_configs(self):
        plan = small_plan()
        records = run_ber_sweep(plan, measure_time=False)
        assert [r.config.ebn0_db for r in records] == [0.0, 6.0]
        for rec in records:
            n_bits = rec.trials * bits_per_symbol(rec.config)
            assert rec.ber == rec.bit_errors / n_bits
            assert rec.ci95 == binomial_ci95(rec.ber, n_bits)

    def test_import_loads_no_process_pool(self):
        # the pool is imported by run_ber_sweep when it runs more than one worker
        src = os.path.dirname(os.path.dirname(harness.__file__))
        code = ("import sys, svcim; print(sorted(m for m in sys.modules if m == 'multiprocessing'"
                " or m.startswith(('multiprocessing.', 'concurrent.futures.process'))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_worker_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv(harness.WORKERS_ENV, value)
        with pytest.raises(ValueError, match=f"^{harness.WORKERS_ENV} .*{value}"):
            run_ber_sweep(small_plan(values=(0.0,), max_trials=100), measure_time=False)

    @pytest.mark.parametrize("workers", [0, -4, True, 1.0, 2.5])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ValueError, match=f"^workers .*{workers}"):
            run_ber_sweep(small_plan(values=(0.0,), max_trials=100), workers=workers,
                          measure_time=False)

    @pytest.mark.parametrize("measure_time", ["no", 0, None])
    def test_measure_time_not_a_bool_rejected(self, measure_time, monkeypatch):
        # a truthy "no" would time every decode; the check comes before any shard
        monkeypatch.setattr(harness, "_run_shard", None)
        with pytest.raises(ValueError, match=f"^measure_time must be bool, got {measure_time!r}$"):
            run_ber_sweep(small_plan(values=(0.0,), max_trials=100), workers=1,
                          measure_time=measure_time)


class TestConfidenceInterval:
    def test_formula(self):
        assert binomial_ci95(0.0, 100) == 0.0
        assert np.isclose(binomial_ci95(0.5, 100), 1.96 * math.sqrt(0.25 / 100))

    @pytest.mark.parametrize("ber,n_bits,message", [
        (1.5, 10, "ber must lie in [0, 1], got 1.5"),
        (-0.2, 10, "ber must lie in [0, 1], got -0.2"),
        (math.nan, 10, "ber must lie in [0, 1], got nan"),
        (math.inf, 10, "ber must lie in [0, 1], got inf"),
        (True, 10, "ber must be float, got True"),
        (0.1, 2.5, "n_bits must be int, got 2.5"),
        (0.1, True, "n_bits must be int, got True"),
    ], ids=["above-one", "negative", "nan", "inf", "bool-ber", "fractional-bits", "bool-bits"])
    def test_impossible_arguments_named(self, ber, n_bits, message):
        # each once gave a zero-width interval, a NaN or a value for a fractional count
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            binomial_ci95(ber, n_bits)

    @pytest.mark.parametrize("ber,n_bits", [(0, 10), (1, 10), (1.0, 1), (np.float64(0.25), np.int64(40))])
    def test_edges_taken(self, ber, n_bits):
        assert binomial_ci95(ber, n_bits) == 1.96 * math.sqrt(float(ber) * (1.0 - ber) / int(n_bits))

    def test_coverage_on_synthetic_bernoulli(self):
        # calibrated oracle: the documented interval must bracket p = 0.1
        # in at least 90% of repeated meta-runs
        rng = np.random.default_rng(42)
        p, n = 0.1, 2_000
        covered = 0
        reps = 200
        for _ in range(reps):
            errors = rng.binomial(n, p)
            ber = errors / n
            half = binomial_ci95(ber, n)
            covered += (ber - half) <= p <= (ber + half)
        assert covered / reps >= 0.90


class TestEmission:
    def _records(self):
        plan = small_plan()
        return run_ber_sweep(plan, measure_time=False)

    def test_empty_csv_has_header_only(self):
        buf = io.StringIO()
        write_ber_csv([], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scheme,detector,N,M,K,L,v,G,ebn0_db")

    def test_csv_roundtrip(self):
        records = self._records()
        buf = io.StringIO()
        write_ber_csv(records, buf)
        buf.seek(0)
        assert read_ber_csv(buf) == records

    def test_ber_column_self_consistent(self):
        records = self._records()
        buf = io.StringIO()
        write_ber_csv(records, buf)
        buf.seek(0)
        import csv

        for row in csv.DictReader(buf):
            recomputed = int(row["bit_errors"]) / (int(row["trials"]) * int(row["m"]))
            assert float(row["ber"]) == recomputed

    def test_csv_byte_identical_across_runs(self):
        plan = small_plan()
        a, b = io.StringIO(), io.StringIO()
        write_ber_csv(run_ber_sweep(plan, measure_time=False), a)
        write_ber_csv(run_ber_sweep(plan, workers=2, measure_time=False), b)
        assert a.getvalue() == b.getvalue()

    def test_emit_csv_and_plot_files(self, tmp_path):
        records = self._records()
        csv_path = tmp_path / "out.csv"
        emit_results(records, "csv", csv_path, "ebn0_db")
        with open(csv_path) as fh:
            assert read_ber_csv(fh) == records

        plot_path = tmp_path / "out.json"
        emit_results(records, "plot", plot_path, "ebn0_db")
        payload = json.loads(plot_path.read_text())
        assert payload["x_axis"] == "ebn0_db"
        (series,) = payload["series"]
        assert series["x"] == [0.0, 6.0]
        assert series["ber"] == [r.ber for r in records]

    def test_plot_log_ber_handles_zero(self):
        rec = BerRecord(
            config=SystemConfig(), trials=10, bit_errors=0, wall_ns_per_decode=0.0,
        )
        payload = plot_description([rec], "ebn0_db")
        assert payload["series"][0]["log10_ber"] == [None]

    def test_search_knobs_split_plot_series(self):
        # sweeps that differ only in a search control are separate curves
        records = [
            BerRecord(config=SystemConfig(ebn0_db=snr, mmp_omega=omega), trials=10,
                      bit_errors=1, wall_ns_per_decode=0.0)
            for omega in (2, 3) for snr in (0.0, 6.0)
        ]
        series = plot_description(records, "ebn0_db")["series"]
        assert [s["x"] for s in series] == [[0.0, 6.0], [0.0, 6.0]]

    CFG = SystemConfig(N=32, M=16)  # 7 bits per frame

    @pytest.mark.parametrize("change,name", [
        (dict(trials=0), "trials"),
        (dict(bit_errors=-3), "bit_errors"),
        (dict(bit_errors=10 * 7 + 1), "bit_errors"),
        (dict(wall_ns_per_decode=-1.0), "wall_ns_per_decode"),
        (dict(wall_ns_per_decode=float("nan")), "wall_ns_per_decode"),
        # a non-integer count would be written as a row that read_ber_csv refuses
        (dict(trials=1.5), "trials"),
        (dict(bit_errors=2.5), "bit_errors"),
        (dict(trials=True), "trials"),
        (dict(wall_ns_per_decode="0"), "wall_ns_per_decode"),
        (dict(config={"N": 32}), "config"),
    ])
    def test_impossible_record_rejected(self, change, name):
        fields = dict(config=self.CFG, trials=10, bit_errors=70, wall_ns_per_decode=0.0)
        assert bits_per_symbol(self.CFG) == 7
        assert BerRecord(**fields).ber == 1.0  # every bit wrong is possible
        with pytest.raises(ValueError, match=f"^{name} must"):
            BerRecord(**{**fields, **change})

    def test_numpy_counts_read_back(self):
        rec = BerRecord(config=self.CFG, trials=np.int64(10), bit_errors=np.int32(7),
                        wall_ns_per_decode=np.float64(2.5))
        assert (type(rec.trials), type(rec.bit_errors)) == (int, int)
        buf = io.StringIO()
        write_ber_csv([rec], buf)
        buf.seek(0)
        assert read_ber_csv(buf) == [rec]

    @pytest.mark.parametrize("column,text", [("trials", "0"), ("bit_errors", "-3"),
                                             ("bit_errors", "1000000")])
    def test_impossible_row_rejected_on_read(self, column, text):
        buf = io.StringIO()
        write_ber_csv(self._records()[:1], buf)
        header, row = buf.getvalue().splitlines()
        cells = row.split(",")
        cells[header.split(",").index(column)] = text
        with pytest.raises(ValueError, match=f"^{column} must"):
            read_ber_csv(io.StringIO(f"{header}\n{','.join(cells)}\n"))

    @pytest.mark.parametrize("edits,column", [
        (dict(m="99", ber="0.5"), "m"),
        (dict(ber="0.5"), "ber"),
        (dict(ber="0.10"), "ber"),  # the same number, not the written text
        (dict(ci95="0.0"), "ci95"),
    ])
    def test_derived_column_checked_on_read(self, edits, column):
        rec = BerRecord(config=self.CFG, trials=10, bit_errors=7, wall_ns_per_decode=0.0)
        buf = io.StringIO()
        write_ber_csv([rec], buf)
        header, row = buf.getvalue().splitlines()
        assert read_ber_csv(io.StringIO(f"{header}\n{row}\n")) == [rec]
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["m"], cells["ber"]) == ("7", "0.1")
        cells.update(edits)
        with pytest.raises(ValueError, match=f"^{column}: the row holds"):
            read_ber_csv(io.StringIO(f"{header}\n{','.join(cells.values())}\n"))

    def _header_and_row(self):
        buf = io.StringIO()
        write_ber_csv([BerRecord(config=self.CFG, trials=10, bit_errors=7,
                                 wall_ns_per_decode=0.0)], buf)
        return [line.split(",") for line in buf.getvalue().splitlines()]

    def test_missing_column_named_on_read(self):
        header, row = self._header_and_row()
        i = header.index("seed")
        text = "".join(",".join(cells[:i] + cells[i + 1:]) + "\n" for cells in (header, row))
        with pytest.raises(ValueError, match="^line 2 has no cell for column seed$"):
            read_ber_csv(io.StringIO(text))

    def test_short_row_named_on_read(self):
        header, row = self._header_and_row()
        text = f"{','.join(header)}\n{','.join(row[:-3])}\n"
        with pytest.raises(ValueError, match="^line 2 has no cell for column "
                                             "ber, ci95, wall_ns_per_decode$"):
            read_ber_csv(io.StringIO(text))

    def test_plot_axis_must_be_a_config_field(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="axis_field.*'ebn0'"):
            emit_results(self._records(), "plot", path, "ebn0")
        assert not path.exists()

    def test_emit_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "xml", tmp_path / "x", "ebn0_db")

    def test_emit_surfaces_path_errors(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_results([], "csv", tmp_path / "no/such/dir/x.csv", "ebn0_db")


class TestRunTiming:
    def test_basic_measurement(self):
        cfgs = [SystemConfig(N=32, M=16, ebn0_db=20.0, seed=2, detector=d) for d in ("mmpdf", "ml")]
        records = run_timing(cfgs, decodes=100, warmup=10, batches=5)
        assert [rec.config for rec in records] == cfgs
        for rec in records:
            assert rec.mean_ns > 0
            assert rec.decodes == 100
            assert rec.spread_ns >= 0

    def test_secbim_time_scales_with_books(self, monkeypatch):
        # the G searches of a decode are timed apart from its fixed cost
        # (co-phase, input checks, metrics, bits), which all books share: at
        # N = M = 32 that cost alone pulls the whole-decode ratio to about 2.9
        base = dict(M=32, N=32, K=2, L=16, v=10, ebn0_db=20.0, seed=4)
        single = SystemConfig(scheme="esvc", G=1, **base)
        joint = SystemConfig(scheme="secbim", G=4, **base)
        search_ns = {1: 0, 4: 0}  # by the book count of the decode
        n_books = []
        decode, search = detectors.secbim_decode, detectors.mmp_df

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
        # both configs run the same number of decodes, in interleaved batches
        run_timing([single, joint], decodes=1500, warmup=30, batches=15)
        ratio = search_ns[4] / search_ns[1]
        assert 0.7 * 4 <= ratio <= 1.3 * 4

    @pytest.mark.parametrize("overrides,name", [
        (dict(batches=0), "batches"),
        (dict(decodes=0), "decodes"),
        (dict(decodes=-10), "decodes"),
        (dict(decodes=4), "decodes"),
        (dict(warmup=-1), "warmup"),
        (dict(decodes=19, batches=10), "decodes"),
        (dict(decodes=20.0), "decodes"),
        (dict(warmup=1.5), "warmup"),
        (dict(batches=True), "batches"),
        (dict(configs=[]), "configs"),
    ], ids=["batches=0", "decodes=0", "decodes=-10", "decodes<batches", "warmup=-1",
            "decodes%batches", "decodes=20.0", "warmup=1.5", "batches=True", "no-configs"])
    def test_edge_inputs_rejected(self, overrides, name):
        kwargs = dict(configs=[SystemConfig(N=32, M=16)], decodes=20, warmup=0, batches=5)
        with pytest.raises(ValueError, match=f"^{name} "):
            run_timing(**{**kwargs, **overrides})

    @pytest.mark.parametrize("configs,message", [
        (SystemConfig(N=32, M=16), "configs must be an iterable of SystemConfig, got "),
        ([{}], "configs[0] must be SystemConfig, got {}"),
        ([SystemConfig(N=32, M=16), "esvc"], "configs[1] must be SystemConfig, got 'esvc'"),
    ], ids=["one-config", "dict", "str"])
    def test_non_config_named(self, configs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            run_timing(configs, decodes=5, warmup=0, batches=5)

    def test_ml_time_scales_with_books(self):
        # the candidates grow by G, so should the enumeration time; at M = 128
        # their gathers outweigh the decode's fixed cost
        base = dict(M=128, N=32, K=2, L=16, v=10, ebn0_db=20.0, seed=6)
        single = SystemConfig(scheme="esvc", G=1, detector="ml", **base)
        joint = SystemConfig(scheme="secbim", G=4, detector="ml", **base)
        t_single, t_joint = run_timing([single, joint], decodes=1200, warmup=40, batches=15)
        ratio = t_joint.mean_ns / t_single.mean_ns
        assert 2.0 <= ratio <= 7.0

    def test_timing_csv(self, tmp_path):
        cfgs = [SystemConfig(N=32, M=16, ebn0_db=20.0)]
        records = run_timing(cfgs, decodes=50, warmup=5, batches=5)
        buf = io.StringIO()
        write_timing_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scheme,detector")
