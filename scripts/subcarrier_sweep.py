#!/usr/bin/env python3
"""BER vs Eb/N0 for a growing number of subcarriers at fixed M.

Spreading the same activation patterns over more subcarriers buys a coding
gain that saturates once N passes M; this run produces one CSV series per N
so the curves can be overlaid.
"""
import argparse

from svcim.harness import SweepPlan, emit_results, run_ber_sweep
from svcim.link import SystemConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--M", type=int, default=128)
    parser.add_argument("--subcarriers", default="32,64,128,256,512")
    parser.add_argument("--ebn0", default="0,2,4,6,8,10,12")
    parser.add_argument("--min-errors", type=int, default=100)
    parser.add_argument("--max-trials", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="subcarrier_sweep.csv")
    args = parser.parse_args()

    records = []
    for n in (int(x) for x in args.subcarriers.split(",")):
        plan = SweepPlan(
            base=SystemConfig(N=n, M=args.M, seed=args.seed),
            sweep_axis="ebn0",
            values=tuple(float(x) for x in args.ebn0.split(",")),
            min_errors=args.min_errors,
            max_trials=args.max_trials,
        )
        for rec in run_ber_sweep(plan):
            records.append(rec)
            print(f"N={n} ebn0={rec.config.ebn0_db:5.1f} ber={rec.ber:.3e} trials={rec.trials}")
    emit_results(records, "csv", args.out, "ebn0_db")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
