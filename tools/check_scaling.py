#!/usr/bin/env python3
"""Assert the multi-thread speedup recorded in BENCH_kernel.json.

Usage:
    check_scaling.py BENCH_kernel.json --cores N

Policy (ROADMAP): on runners with >= 8 cores the 8-thread speedup must be
>= 3x; with >= 4 cores the 4-thread speedup must be >= 2x; below 4 cores
the curve is meaningless and the check passes with a notice.  The
curve's speedups are ratios within one run, so no baseline is read.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("--cores", type=int, required=True,
                        help="runner hardware core count (nproc)")
    args = parser.parse_args()

    with open(args.bench_json) as f:
        bench = json.load(f)
    curve = {point["threads"]: point["speedup"]
             for point in bench.get("scaling", [])}
    if not curve:
        print("check_scaling: no scaling section in", args.bench_json)
        return 1

    if args.cores >= 8:
        threads, need = 8, 3.0
    elif args.cores >= 4:
        threads, need = 4, 2.0
    else:
        print(f"check_scaling: {args.cores} core(s) — scaling assertion "
              f"skipped (needs >= 4)")
        return 0

    got = curve.get(threads)
    if got is None:
        print(f"check_scaling: no {threads}-thread point in the curve "
              f"({sorted(curve)})")
        return 1
    print(f"check_scaling: {args.cores} cores, {threads}-thread speedup "
          f"{got:.2f}x (required >= {need:.1f}x)")
    if got < need:
        print(f"check_scaling: FAIL — parallel verification pipeline "
              f"scaled {got:.2f}x, expected >= {need:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
