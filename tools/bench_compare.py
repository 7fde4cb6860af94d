#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh benchmark JSON against the
committed baseline and fail if any metric regressed.

Usage:
    bench_compare.py --baseline bench/baselines/BENCH_kernel.baseline.json \
        --current BENCH_kernel.json [--threshold 15]
    bench_compare.py --baseline bench/baselines/BENCH_service.baseline.json \
        --current BENCH_service.json --section service_metrics \
        --higher-is-better --threshold 40 --floor-ns 0.1
    bench_compare.py --baseline bench/baselines/BENCH_service.baseline.json \
        --current BENCH_service.json --section service_seconds \
        --threshold 50 --floor-ns 0.1

The compared metrics live in the flat dict named by --section (default
micro_ns_per_op).  By default lower is better (latencies); with
--higher-is-better the direction flips (ratios, speedups, throughput).
Exit status 1 when any metric is more than --threshold percent worse than
the baseline, or when a baseline metric disappeared from the current run
(a silently dropped benchmark must not pass the gate).  Regressions
smaller than --floor-ns in absolute terms (the section's own unit:
nanoseconds for micro_ns_per_op, seconds for service_seconds) are
ignored: tiny metrics jitter past any percentage threshold on shared
runners.
Better-than-baseline results are reported; refresh the baseline in a
dedicated PR when an optimisation makes them permanent (see
bench/baselines/ for provenance).
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="max allowed regression, percent (default 15)")
    parser.add_argument("--floor-ns", type=float, default=0.5,
                        help="ignore regressions smaller than this in "
                             "absolute metric units (default 0.5)")
    parser.add_argument("--section", default="micro_ns_per_op",
                        help="name of the flat metric dict to compare "
                             "(default micro_ns_per_op)")
    parser.add_argument("--higher-is-better", action="store_true",
                        help="larger metric values are better (ratios, "
                             "speedups) — the regression direction flips")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    base_metrics = baseline.get(args.section, {})
    cur_metrics = current.get(args.section, {})
    if not base_metrics:
        print(f"bench_compare: baseline has no {args.section} section")
        return 1

    failures = []
    print(f"{'metric':<32} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name, base_v in sorted(base_metrics.items()):
        if name not in cur_metrics:
            print(f"{name:<32} {base_v:>12.6g} {'MISSING':>12}")
            failures.append(f"{name}: missing from current run")
            continue
        cur_v = cur_metrics[name]
        delta = (cur_v - base_v) / base_v * 100.0
        # Signed "worseness": positive when the current value is on the
        # bad side of the baseline for this metric's direction.
        worse_pct = -delta if args.higher_is_better else delta
        worse_abs = base_v - cur_v if args.higher_is_better else cur_v - base_v
        flag = ""
        if worse_pct > args.threshold and worse_abs > args.floor_ns:
            flag = "  << REGRESSION"
            failures.append(f"{name}: {base_v:.6g} -> {cur_v:.6g} "
                            f"({worse_pct:+.1f}% worse > "
                            f"{args.threshold:.0f}%)")
        print(f"{name:<32} {base_v:>12.6g} {cur_v:>12.6g} "
              f"{delta:>+7.1f}%{flag}")
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        print(f"{name:<32} {'(new)':>12} {cur_metrics[name]:>12.6g}")

    if failures:
        print(f"\nbench_compare: {len(failures)} metric(s) regressed "
              f"beyond {args.threshold:.0f}%:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbench_compare: all {len(base_metrics)} {args.section} "
          f"metrics within {args.threshold:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
