"""Command line front end: ``svcim ber`` and ``svcim timing``.

Every SystemConfig field has a flag; sweeps take an axis and a comma list
of values. Worker count for BER sweeps comes from the SVCIM_WORKERS
environment variable (default 1). Exit code is nonzero when the requested
configuration fails validation.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .harness import (
    SWEEP_AXES,
    SweepPlan,
    emit_results,
    run_ber_sweep,
    run_timing,
    write_timing_csv,
)
from .link import SystemConfig, bits_per_symbol, config_from_text, field_types, spectral_efficiency

# SystemConfig field -> (flag, help). Other fields get --<field name>, no help.
_FLAGS = {
    "N": ("--N", "subcarriers (power of two)"),
    "M": ("--M", "virtual-domain length"),
    "K": ("--K", "active indices"),
    "L": ("--L", "cyclic prefix length"),
    "v": ("--v", "channel taps"),
    "G": ("--G", "codebooks (power of two)"),
    "ebn0_db": ("--ebn0", "Eb/N0 in dB (inf = noiseless)"),
    "channel_path": ("--channel-path", None),
    "mmp_omega": ("--omega", "search expansions per node"),
    "mmp_lam": ("--lam", "residual stop threshold"),
    "mmp_upsilon": ("--upsilon", "max full-depth candidates"),
    "mmp_relative_stop": ("--absolute-stop",
                          "treat the stop threshold as an absolute residual instead of relative"),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="load the system config from a key=value file (overrides the config flags)",
    )
    types = field_types(SystemConfig)
    for f in fields(SystemConfig):
        flag, help_text = _FLAGS.get(f.name, (f"--{f.name}", None))
        if types[f.name] is bool:  # a switch that flips the default
            parser.add_argument(flag, dest=f.name, help=help_text,
                                action="store_false" if f.default else "store_true")
        else:
            choices = f.metadata.get("choices")
            parser.add_argument(flag, dest=f.name, type=types[f.name], default=f.default,
                                choices=choices, help=help_text,
                                metavar=None if choices else flag[2:].upper())


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    if args.config is not None:
        with open(args.config) as fh:
            return config_from_text(fh.read())
    return SystemConfig(**{name: getattr(args, name) for name in field_types(SystemConfig)})


def _sweep_plan(args: argparse.Namespace, **limits) -> SweepPlan:
    values = tuple(part for part in args.values.split(",") if part.strip())
    return SweepPlan(base=_config_from_args(args), sweep_axis=args.axis, values=values, **limits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svcim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="Monte Carlo BER sweep")
    _add_config_flags(ber)
    ber.add_argument("--axis", choices=SWEEP_AXES, default="ebn0")
    ber.add_argument("--values", required=True, help="comma-separated sweep values")
    ber.add_argument("--min-errors", type=int, default=100)
    ber.add_argument("--max-trials", type=int, default=100_000)
    ber.add_argument("--out", default="ber.csv")
    ber.add_argument("--format", choices=("csv", "plot"), default="csv")

    timing = sub.add_parser("timing", help="per-decode running-time measurement")
    _add_config_flags(timing)
    timing.add_argument("--axis", choices=SWEEP_AXES, default="M")
    timing.add_argument("--values", required=True, help="comma-separated config values")
    timing.add_argument("--detectors", default="mmpdf,ml", help="comma list of detectors to time")
    timing.add_argument("--decodes", type=int, default=1000)
    timing.add_argument("--warmup", type=int, default=50)
    timing.add_argument("--out", default="timing.csv")
    return parser


def _cmd_ber(args: argparse.Namespace) -> int:
    plan = _sweep_plan(args, min_errors=args.min_errors, max_trials=args.max_trials)
    records = run_ber_sweep(plan)
    for rec in records:
        print(
            f"{args.axis}={getattr(rec.config, plan.axis_field)}"
            f" trials={rec.trials} errors={rec.bit_errors} ber={rec.ber:.3e}"
            f" ci95={rec.ci95:.1e}"
        )
    emit_results(records, args.format, args.out, plan.axis_field)
    print(f"wrote {args.out}")
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    plan = _sweep_plan(args)
    configs = [plan.config_at(v) for v in plan.values]
    detectors = tuple(part for part in args.detectors.split(",") if part.strip())
    records = run_timing(configs, detectors, decodes=args.decodes, warmup=args.warmup)
    for rec in records:
        eff = spectral_efficiency(rec.config)
        print(
            f"{rec.config.detector} N={rec.config.N} M={rec.config.M} G={rec.config.G}"
            f" m={bits_per_symbol(rec.config)} eta={eff:.4f}"
            f" mean={rec.mean_ns / 1e3:.1f}us spread={rec.spread_ns / 1e3:.1f}us"
        )
    with open(args.out, "w", newline="") as fh:
        write_timing_csv(records, fh)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ber":
            return _cmd_ber(args)
        return _cmd_timing(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
