"""Command-line surface: flag plumbing, outputs, exit codes."""
import csv
import json
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from svcim.cli import _config_from_args, _sweep_plan, build_parser, main
from svcim.harness import TIMING_CSV_COLUMNS, SweepPlan, read_ber_csv
from svcim.link import SystemConfig


class TestBerCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        rc = main([
            "ber", "--N", "32", "--M", "16", "--seed", "9",
            "--axis", "ebn0", "--values", "0,6",
            "--min-errors", "20", "--max-trials", "200",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            records = read_ber_csv(fh)
        assert [r.config.ebn0_db for r in records] == [0.0, 6.0]
        assert all(r.config.N == 32 and r.config.M == 16 for r in records)
        captured = capsys.readouterr()
        assert "ber=" in captured.out

    def test_zero_errors_state_an_upper_bound(self, tmp_path, capsys):
        rc = main(["ber", "--N", "32", "--M", "16", "--values", "inf,0", "--min-errors", "10",
                   "--max-trials", "60", "--out", str(tmp_path / "ber.csv")])
        assert rc == 0
        noiseless, noisy = capsys.readouterr().out.splitlines()[:2]
        # 3/60: the rule of three tops the exact one-sided bound 1 - 0.05**(1/n) at every n
        assert noiseless.endswith(" errors=0 ber=0.000e+00 ci95=0.0e+00 upper95=5.0e-02")
        assert "upper95" not in noisy and " errors=0 " not in noisy

    def test_plot_format(self, tmp_path):
        out = tmp_path / "ber.json"
        rc = main([
            "ber", "--N", "32", "--M", "16",
            "--values", "4", "--min-errors", "10", "--max-trials", "100",
            "--format", "plot", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["x_axis"] == "ebn0_db"

    def test_plot_x_axis_is_the_sweep_axis(self, tmp_path):
        out = tmp_path / "ber.json"
        rc = main([
            "ber", "--N", "32", "--ebn0", "8", "--axis", "M", "--values", "8,16",
            "--min-errors", "10", "--max-trials", "100",
            "--format", "plot", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["x_axis"] == "M"
        (series,) = payload["series"]  # one curve over M, not one point per M
        assert series["x"] == [8, 16]
        assert series["label"] == "esvc/mmpdf N=32 G=1"

    def test_axis_over_config_field(self, tmp_path):
        out = tmp_path / "ber.csv"
        rc = main([
            "ber", "--N", "32", "--M", "16", "--ebn0", "8",
            "--axis", "M", "--values", "16,32",
            "--min-errors", "10", "--max-trials", "100",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            records = read_ber_csv(fh)
        assert [r.config.M for r in records] == [16, 32]

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        rc = main([
            "ber", "--N", "48", "--values", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_mmp_flags_carry_through(self, tmp_path):
        out = tmp_path / "ber.csv"
        rc = main([
            "ber", "--N", "32", "--M", "16", "--omega", "3", "--lam", "0.2",
            "--upsilon", "4", "--no-relative-stop",
            "--values", "inf", "--min-errors", "10", "--max-trials", "50",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            (rec,) = read_ber_csv(fh)
        assert rec.config.mmp.omega == 3
        assert rec.config.mmp.lam == 0.2
        assert rec.config.mmp.upsilon == 4
        assert rec.config.mmp.relative_stop is False

    def test_config_file(self, tmp_path):
        from svcim.link import config_to_text

        cfg_path = tmp_path / "link.cfg"
        cfg_path.write_text(config_to_text(SystemConfig(N=32, M=16, seed=4)))
        out = tmp_path / "ber.csv"
        rc = main([
            "ber", "--config", str(cfg_path), "--values", "inf",
            "--min-errors", "10", "--max-trials", "50", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            (rec,) = read_ber_csv(fh)
        assert (rec.config.N, rec.config.M, rec.config.seed) == (32, 16, 4)

    def test_flags_override_the_config_file(self, tmp_path):
        cfg_path = tmp_path / "link.cfg"
        cfg_path.write_text("N=32\nM=16\nseed=4\n")
        args = build_parser().parse_args([
            "ber", "--config", str(cfg_path), "--N", "128", "--ebn0", "3", "--no-relative-stop",
            "--values", "inf",
        ])
        assert _config_from_args(args) == SystemConfig(
            N=128, M=16, seed=4, ebn0_db=3.0, mmp_relative_stop=False)

    def test_flag_turns_a_file_switch_back_on(self, tmp_path):
        from svcim.link import config_to_text

        cfg_path = tmp_path / "link.cfg"
        cfg_path.write_text(config_to_text(SystemConfig(N=32, M=16, mmp_relative_stop=False)))
        out = tmp_path / "ber.csv"
        rc = main([
            "ber", "--config", str(cfg_path), "--relative-stop", "--values", "inf",
            "--min-errors", "10", "--max-trials", "50", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            (rec,) = read_ber_csv(fh)
        assert rec.config == SystemConfig(N=32, M=16, ebn0_db=float("inf"))
        assert rec.config.mmp_relative_stop is True

    def test_axis_value_named_on_a_misread(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["ber", "--N", "64", "--axis", "M", "--values", "32.5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: M: cannot read '32.5' as int\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main([
            "ber", "--config", str(tmp_path / "absent.cfg"), "--values", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_secbim_flags(self, tmp_path):
        out = tmp_path / "ber.csv"
        rc = main([
            "ber", "--scheme", "secbim", "--G", "2", "--N", "32", "--M", "16",
            "--values", "inf", "--min-errors", "10", "--max-trials", "50",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            (rec,) = read_ber_csv(fh)
        assert rec.config.scheme == "secbim"
        assert rec.ber == 0.0


class TestTimingCommand:
    def test_writes_timing_csv(self, tmp_path, capsys):
        out = tmp_path / "timing.csv"
        rc = main([
            "timing", "--N", "32", "--M", "16", "--ebn0", "20",
            "--axis", "M", "--values", "16,32",
            "--decodes", "40", "--warmup", "5",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + two configs
        assert "mean=" in capsys.readouterr().out

    def test_states_blas_threading(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "timing.csv"
        argv = ["timing", "--N", "32", "--M", "16", "--values", "16", "--decodes", "10",
                "--warmup", "0", "--out", str(out)]
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in blas:
            monkeypatch.delenv(name, raising=False)
        assert main(argv) == 0
        unpinned = capsys.readouterr()
        assert ("blas threads: OPENBLAS_NUM_THREADS=unset OMP_NUM_THREADS=unset "
                "MKL_NUM_THREADS=unset") in unpinned.out
        assert "warning: BLAS threads are not pinned" in unpinned.err
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert main(argv) == 0
        pinned = capsys.readouterr()
        assert "OPENBLAS_NUM_THREADS=unset OMP_NUM_THREADS=1 MKL_NUM_THREADS=unset" in pinned.out
        assert "warning" not in pinned.err
        # the threading goes to the terminal, not into the timing CSV
        assert out.read_text().splitlines()[0] == ",".join(TIMING_CSV_COLUMNS)

    def test_timing_row_carries_the_whole_config(self, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main([
            "timing", "--N", "32", "--M", "16", "--omega", "3", "--channel-path", "time",
            "--axis", "ebn0", "--values", "20",
            "--decodes", "10", "--warmup", "2", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert row["mmp_omega"] == "3"
        assert row["channel_path"] == "time"

    def test_axis_over_book_count(self, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main([
            "timing", "--scheme", "secbim", "--N", "32", "--M", "16",
            "--axis", "G", "--values", "1,2",
            "--decodes", "10", "--warmup", "0", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["G"] for row in rows] == ["1", "2"]
        assert {row["scheme"] for row in rows} == {"secbim"}

    def test_times_the_detector_given(self, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main([
            "timing", "--N", "32", "--axis", "M", "--values", "8,16", "--detector", "ml",
            "--decodes", "10", "--warmup", "0", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["detector"], row["M"]) for row in rows] == [("ml", "8"), ("ml", "16")]

    def test_unknown_detector_fails(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "timing", "--N", "32", "--M", "16", "--values", "16",
                "--detector", "genie", "--decodes", "10",
                "--out", str(tmp_path / "t.csv"),
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flags,name", [
        (["--decodes", "0"], "decodes"),
        (["--decodes", "-10"], "decodes"),
        (["--warmup", "-1"], "warmup"),
        (["--decodes", "19"], "decodes"),  # 10 batches
    ], ids=["decodes=0", "decodes=-10", "warmup=-1", "decodes%batches"])
    def test_edge_arguments_fail(self, tmp_path, capsys, flags, name):
        out = tmp_path / "t.csv"
        rc = main([
            "timing", "--N", "32", "--M", "16", "--values", "16",
            "--decodes", "20", "--warmup", "0", *flags, "--out", str(out),
        ])
        assert rc == 2
        assert f"error: {name} " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["ber", "timing"])
def test_flag_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args([command, "--values", "0"])
    assert _config_from_args(args) == SystemConfig()
    if command == "ber":  # the sweep limits are SweepPlan's own
        defaults = {f.name: f.default for f in fields(SweepPlan)}
        plan = _sweep_plan(args)
        assert (plan.min_errors, plan.max_trials) == (defaults["min_errors"], defaults["max_trials"])
    else:  # no count reaches run_timing, which applies its own
        assert not {"decodes", "warmup"} & vars(args).keys()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


def _readme_experiment_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("svcim ")]


def test_readme_experiments_build_their_sweeps():
    # no script runs these figure commands, so this keeps them current:
    # each parses and builds every config it would run, without simulating
    commands = _readme_experiment_commands()
    assert {argv[0] for argv in commands} == {"ber", "timing"}
    outs = []
    for argv in commands:
        args = build_parser().parse_args(argv)
        _sweep_plan(args)  # the plan a ber run sweeps; the configs a timing run times, in order
        outs.append(args.out)
    assert len(set(outs)) == len(outs)  # one file per series
