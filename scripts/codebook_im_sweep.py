#!/usr/bin/env python3
"""Single-codebook baseline against codebook index modulation with G books.

The joint scheme carries log2(G) extra bits per symbol; this run compares
their BER curves at matched Eb/N0.
"""
import argparse

from svcim.harness import SweepPlan, emit_results, run_ber_sweep
from svcim.link import SystemConfig, bits_per_symbol


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=128)
    parser.add_argument("--M", type=int, default=128)
    parser.add_argument("--books", default="2,4")
    parser.add_argument("--ebn0", default="0,2,4,6,8")
    parser.add_argument("--min-errors", type=int, default=100)
    parser.add_argument("--max-trials", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="codebook_im_sweep.csv")
    args = parser.parse_args()

    values = tuple(float(x) for x in args.ebn0.split(","))
    configs = [SystemConfig(N=args.N, M=args.M, seed=args.seed)]
    for g in (int(x) for x in args.books.split(",")):
        configs.append(SystemConfig(scheme="secbim", G=g, N=args.N, M=args.M, seed=args.seed))

    records = []
    for cfg in configs:
        plan = SweepPlan(
            base=cfg, sweep_axis="ebn0", values=values,
            min_errors=args.min_errors, max_trials=args.max_trials,
        )
        label = f"{cfg.scheme} G={cfg.G} ({bits_per_symbol(cfg)} bits/symbol)"
        for rec in run_ber_sweep(plan):
            records.append(rec)
            print(f"{label} ebn0={rec.config.ebn0_db:5.1f} ber={rec.ber:.3e} trials={rec.trials}")
    emit_results(records, "csv", args.out, "ebn0_db")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
