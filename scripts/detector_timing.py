#!/usr/bin/env python3
"""Per-decode running time of the greedy and ML detectors as M grows.

The greedy search stays roughly flat in M because the tree size is set by
K; ML enumeration grows with the candidate count 2^m. Also reports the
joint scheme's (approximately linear) cost in the number of books G.
"""
import argparse

from svcim.harness import run_timing, write_timing_csv
from svcim.link import SystemConfig, bits_per_symbol


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=64)
    parser.add_argument("--vdd-sizes", default="32,64,128,256")
    parser.add_argument("--books", default="2,4")
    parser.add_argument("--decodes", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="detector_timing.csv")
    args = parser.parse_args()

    configs = [
        SystemConfig(N=args.N, M=m, ebn0_db=30.0, seed=args.seed)
        for m in (int(x) for x in args.vdd_sizes.split(","))
    ]
    records = run_timing(configs, detectors=("mmpdf", "ml"), decodes=args.decodes)

    joint = [
        SystemConfig(scheme="secbim", G=g, N=args.N, M=args.N, ebn0_db=30.0, seed=args.seed)
        for g in (int(x) for x in args.books.split(","))
    ]
    records += run_timing(joint, detectors=("mmpdf",), decodes=args.decodes)

    for rec in records:
        cfg = rec.config
        print(
            f"{cfg.detector:6s} {cfg.scheme:6s} M={cfg.M:4d} G={cfg.G} "
            f"m={bits_per_symbol(cfg):2d} mean={rec.mean_ns / 1e3:9.1f}us "
            f"spread={rec.spread_ns / 1e3:7.1f}us"
        )
    with open(args.out, "w", newline="") as fh:
        write_timing_csv(records, fh)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
