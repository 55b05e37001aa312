"""Command line front end: ``svcim ber`` and ``svcim timing``.

Every SystemConfig field has a flag; sweeps take an axis and a comma list
of values. Worker count for BER sweeps comes from the SVCIM_WORKERS
environment variable (default 1). Exit code is nonzero when the requested
configuration fails validation.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

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
    "mmp_relative_stop": ("--relative-stop",
                          "stop threshold relative to the input norm (off: an absolute residual)"),
}

# The thread variables of the BLAS builds numpy ships with; unset, a BLAS call
# may spread over every core, and decode times spread widely.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="load the base system config from a key=value file; config flags override it",
    )
    # no defaults: a flag that is not given leaves the base config's value
    types = field_types(SystemConfig)
    for f in fields(SystemConfig):
        flag, help_text = _FLAGS.get(f.name, (f"--{f.name}", None))
        tp, choices = types[f.name], f.metadata.get("choices")
        # a bool field is a --flag / --no-flag pair
        kind = (dict(action=argparse.BooleanOptionalAction) if tp is bool else
                dict(type=tp, choices=choices, metavar=None if choices else flag[2:].upper()))
        parser.add_argument(flag, dest=f.name, default=argparse.SUPPRESS, help=help_text, **kind)


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    """The ``--config`` file, or the defaults, with the config flags given applied."""
    given = {name: value for name, value in vars(args).items() if name in field_types(SystemConfig)}
    if args.config is None:
        return SystemConfig(**given)
    with open(args.config) as fh:
        return replace(config_from_text(fh.read()), **given)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among ``names`` that were given; one not given leaves the library's default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _sweep_plan(args: argparse.Namespace) -> SweepPlan:
    values = tuple(part for part in args.values.split(",") if part.strip())
    return SweepPlan(base=_config_from_args(args), sweep_axis=args.axis, values=values,
                     **_given(args, "min_errors", "max_trials"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svcim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="Monte Carlo BER sweep")
    _add_config_flags(ber)
    ber.add_argument("--axis", choices=SWEEP_AXES, default="ebn0")
    ber.add_argument("--values", required=True, help="comma-separated sweep values")
    # no defaults: a limit that is not given is SweepPlan's
    ber.add_argument("--min-errors", type=int, default=argparse.SUPPRESS)
    ber.add_argument("--max-trials", type=int, default=argparse.SUPPRESS)
    ber.add_argument("--out", default="ber.csv")
    ber.add_argument("--format", choices=("csv", "plot"), default="csv")

    timing = sub.add_parser("timing", help="per-decode running-time measurement")
    _add_config_flags(timing)
    timing.add_argument("--axis", choices=SWEEP_AXES, default="M")
    timing.add_argument("--values", required=True, help="comma-separated config values")
    # no defaults: a count that is not given is run_timing's
    timing.add_argument("--decodes", type=int, default=argparse.SUPPRESS)
    timing.add_argument("--warmup", type=int, default=argparse.SUPPRESS)
    timing.add_argument("--out", default="timing.csv")
    return parser


def _cmd_ber(args: argparse.Namespace) -> int:
    plan = _sweep_plan(args)
    records = run_ber_sweep(plan)
    for rec in records:
        # no errors: BER <= frame error rate < 3/trials at 95% (the rule of three)
        upper = f" upper95={3 / rec.trials:.1e}" if rec.bit_errors == 0 else ""
        print(
            f"{args.axis}={getattr(rec.config, plan.axis_field)}"
            f" trials={rec.trials} errors={rec.bit_errors} ber={rec.ber:.3e}"
            f" ci95={rec.ci95:.1e}{upper}"
        )
    emit_results(records, args.format, args.out, plan.axis_field)
    print(f"wrote {args.out}")
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    plan = _sweep_plan(args)
    print("blas threads:", *(f"{name}={os.environ.get(name, 'unset')}" for name in _BLAS_THREADS))
    if not any(name in os.environ for name in _BLAS_THREADS):
        print("warning: BLAS threads are not pinned; set OPENBLAS_NUM_THREADS=1", file=sys.stderr)
    records = run_timing(map(plan.config_at, plan.values), **_given(args, "decodes", "warmup"))
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
