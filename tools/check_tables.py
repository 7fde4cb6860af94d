#!/usr/bin/env python3
"""Completion-frontier gate for the paper's tables.

Usage:
    check_tables.py --baseline bench/baselines/TABLES.baseline.json \
        --current TABLE1.json TABLE2.json

The baseline lists every (table, row, engine) cell that completed within
the tables' budget when it was recorded, with the seconds it took.  A
listed cell that took under a quarter of the budget must still complete:
at that margin a miss is a regression, not a slow runner.  A listed cell
nearer the budget that misses is reported but passes.  Each current JSON
is a `bench_table1` or `bench_table2 --json` file run at the baseline's
budget; a listed table, row or engine missing from it fails the gate, as
does a budget other than the baseline's.  Cells that complete now but are
not listed are reported as new; refresh the baseline (see its provenance)
when a change moves the frontier for good.

Exit status 1 on any failure.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True, nargs="+",
                        help="bench_table1 / bench_table2 --json files")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    budget = float(baseline["timeout_sec"])
    gated_below = budget / 4

    tables = {}
    for path in args.current:
        with open(path) as f:
            run = json.load(f)
        if abs(float(run["timeout_sec"]) - budget) > 1e-9:
            print(f"check_tables: {path} ran at a {run['timeout_sec']} s "
                  f"budget, the baseline at {budget} s")
            return 1
        tables[run["benchmark"]] = {row["name"]: row["engines"]
                                    for row in run["rows"]}

    failures, warnings = [], []
    listed = set()
    for cell in baseline["cells"]:
        table, row, engine = cell["table"], cell["row"], cell["engine"]
        listed.add((table, row, engine))
        where = f"{table} {row} {engine}"
        got = tables.get(table, {}).get(row, {}).get(engine)
        if got is None:
            failures.append(f"{where}: missing from the current run")
        elif not got["completed"]:
            msg = (f"{where}: stopped completing (baseline "
                   f"{cell['seconds']:.3f} s, failure {got['failure']})")
            if cell["seconds"] < gated_below:
                failures.append(msg)
            else:
                warnings.append(msg + "; near the budget, not gated")
        else:
            print(f"ok   {where}: {got['seconds']:.3f} s "
                  f"(baseline {cell['seconds']:.3f} s)")
    for table, rows in sorted(tables.items()):
        for row, engines in rows.items():
            for engine, got in engines.items():
                if got["completed"] and (table, row, engine) not in listed:
                    print(f"new  {table} {row} {engine}: completes in "
                          f"{got['seconds']:.3f} s (not in the baseline)")
    for w in warnings:
        print(f"WARN {w}")
    for f in failures:
        print(f"FAIL {f}")
    gated = sum(1 for c in baseline["cells"] if c["seconds"] < gated_below)
    print(f"check_tables: {len(baseline['cells'])} listed cells, {gated} "
          f"gated (under {gated_below:g} s), {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
