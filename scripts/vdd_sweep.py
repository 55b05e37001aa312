#!/usr/bin/env python3
"""BER vs Eb/N0 for a growing virtual-domain size at fixed N.

Larger M means sparser vectors and more bits per symbol at once; each M
value becomes one CSV series.
"""
import argparse

from svcim.harness import SweepPlan, emit_results, run_ber_sweep
from svcim.link import SystemConfig, bits_per_symbol


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=128)
    parser.add_argument("--vdd-sizes", default="32,64,128")
    parser.add_argument("--ebn0", default="0,2,4,6,8,10")
    parser.add_argument("--min-errors", type=int, default=100)
    parser.add_argument("--max-trials", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="vdd_sweep.csv")
    args = parser.parse_args()

    records = []
    for m in (int(x) for x in args.vdd_sizes.split(",")):
        cfg = SystemConfig(N=args.N, M=m, seed=args.seed)
        plan = SweepPlan(
            base=cfg,
            sweep_axis="ebn0",
            values=tuple(float(x) for x in args.ebn0.split(",")),
            min_errors=args.min_errors,
            max_trials=args.max_trials,
        )
        print(f"M={m}: {bits_per_symbol(cfg)} bits/symbol")
        for rec in run_ber_sweep(plan):
            records.append(rec)
            print(f"M={m} ebn0={rec.config.ebn0_db:5.1f} ber={rec.ber:.3e} trials={rec.trials}")
    emit_results(records, "csv", args.out, "ebn0_db")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
