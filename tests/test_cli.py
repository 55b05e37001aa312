"""Command-line surface: flag plumbing, outputs, exit codes."""
import csv
import json

import pytest

from svcim.cli import _config_from_args, build_parser, main
from svcim.harness import read_ber_csv
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
            "--upsilon", "4", "--absolute-stop",
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
            "--axis", "M", "--values", "16,32", "--detectors", "mmpdf",
            "--decodes", "40", "--warmup", "5",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + two configs
        assert "mean=" in capsys.readouterr().out

    def test_timing_row_carries_the_whole_config(self, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main([
            "timing", "--N", "32", "--M", "16", "--omega", "3", "--channel-path", "time",
            "--axis", "ebn0", "--values", "20", "--detectors", "mmpdf",
            "--decodes", "10", "--warmup", "2", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert row["mmp_omega"] == "3"
        assert row["channel_path"] == "time"

    def test_unknown_detector_fails(self, tmp_path):
        rc = main([
            "timing", "--N", "32", "--M", "16", "--values", "16",
            "--detectors", "genie", "--decodes", "10",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert rc != 0

    @pytest.mark.parametrize("flags,name", [
        (["--detectors", ""], "detectors"),
        (["--decodes", "0"], "decodes"),
        (["--decodes", "-10"], "decodes"),
        (["--warmup", "-1"], "warmup"),
        (["--decodes", "19"], "decodes"),  # 10 batches
    ], ids=["no-detectors", "decodes=0", "decodes=-10", "warmup=-1", "decodes%batches"])
    def test_edge_arguments_fail(self, tmp_path, capsys, flags, name):
        out = tmp_path / "t.csv"
        rc = main([
            "timing", "--N", "32", "--M", "16", "--values", "16", "--detectors", "mmpdf",
            "--decodes", "20", "--warmup", "0", *flags, "--out", str(out),
        ])
        assert rc == 2
        assert f"error: {name} " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["ber", "timing"])
def test_flag_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args([command, "--values", "0"])
    assert _config_from_args(args) == SystemConfig()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0
