#!/usr/bin/env python3
"""Gate for the paper's claims: Tables I and II and the rows of Section V.

Usage:
    check_tables.py --baseline bench/baselines/TABLES.baseline.json \
        --current TABLE1.json TABLE2.json

Each current JSON is a serial `bench_table1` or `bench_table2 --json` file,
run with the baseline's `timeout_sec` (and, for Table I, its `max_n`).
Against the baseline it gates four things:

- The completion frontier.  A listed (table, row, engine) cell that took
  under a quarter of the budget must still complete: at that margin a miss
  is a regression, not a slow runner.  One nearer the budget that misses is
  reported but passes.
- Counts, exactly.  Every count of a listed row (HASH inferences,
  flip-flops, registers, the matcher's verdicts) must repeat.  Inference
  counts depend on the compiler, so they are compared only for a run built
  by the family the baseline was recorded with (`compiler`); for another
  family they are reported as not gated.
- Seconds, loosely.  Every listed seconds column must stay under
  max(5x its baseline, its baseline + 0.05 s): that catches a step grown
  several times slower, not runner noise.
- Flat claims.  Over a claim's rows (minus the listed exceptions), a
  count's largest value may exceed its smallest by at most `within`: Table
  I's HASH inferences for n >= 2, and the compose step's constant.  A
  re-recorded baseline cannot silently lose the paper's shape.

A listed table, row, column or cell missing from the current run fails,
as does a run with `--jobs` other than 1 (concurrent rows share one
inference counter).  Cells and rows that only the current run has are
reported as new; refresh the baseline (see its provenance) when a change
moves a count or the frontier on purpose.

Exit status 1 on any failure.
"""

import argparse
import json
import sys

SECONDS_FACTOR = 5.0
SECONDS_SLACK = 0.05


def load_runs(paths, baseline):
    """benchmark -> run, or an error message."""
    runs = {}
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        for key in ("timeout_sec", "max_n"):
            if key in run and abs(float(run[key]) - baseline[key]) > 1e-9:
                return None, (f"{path} ran with {key} {run[key]}, the "
                              f"baseline with {baseline[key]}")
        if run.get("jobs") != 1:
            return None, (f"{path} ran with --jobs {run.get('jobs')}; counts "
                          f"and seconds are gated on serial runs only")
        runs[run["benchmark"]] = run
    return runs, None


def check_cells(baseline, rows, failures, warnings):
    gated_below = baseline["timeout_sec"] / 4
    engines = {(table, r["name"]): r["engines"]
               for (table, _, _), r in rows.items() if r["engines"]}
    listed = set()
    for cell in baseline["cells"]:
        table, row, engine = cell["table"], cell["row"], cell["engine"]
        listed.add((table, row, engine))
        where = f"{table} {row} {engine}"
        got = engines.get((table, row), {}).get(engine)
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
    for (table, row), cells in sorted(engines.items()):
        for engine, got in cells.items():
            if got["completed"] and (table, row, engine) not in listed:
                print(f"new  {table} {row} {engine}: completes in "
                      f"{got['seconds']:.3f} s (not in the baseline)")
    gated = sum(1 for c in baseline["cells"] if c["seconds"] < gated_below)
    return f"{len(baseline['cells'])} cells ({gated} gated)"


def check_rows(baseline, runs, rows, failures):
    counted = {table for table, run in runs.items()
               if run.get("compiler") == baseline["compiler"]}
    for table in sorted(set(runs) - counted):
        print(f"note {table}: built with {runs[table].get('compiler')}, the "
              f"baseline's counts with {baseline['compiler']}; counts not "
              f"gated")
    listed = set()
    for entry in baseline["rows"]:
        key = (entry["table"], entry["claim"], entry["name"])
        listed.add(key)
        where = " ".join(key)
        got = rows.get(key)
        if got is None:
            failures.append(f"{where}: missing from the current run")
            continue
        for col, base in entry["seconds"].items():
            bound = max(SECONDS_FACTOR * base, base + SECONDS_SLACK)
            sec = got["seconds"].get(col)
            if sec is None:
                failures.append(f"{where} {col}: seconds missing")
            elif sec > bound:
                failures.append(f"{where} {col}: {sec:.4f} s, over its bound "
                                f"{bound:.4f} s (baseline {base:.4f} s)")
        if entry["table"] not in counted:
            continue
        for col, base in entry["counts"].items():
            cur = got["counts"].get(col)
            if cur != base:
                failures.append(f"{where} {col}: {cur}, baseline {base}")
    for key in sorted(set(rows) - listed):
        print(f"new  {' '.join(key)}: not in the baseline")
    return f"{len(listed)} rows"


def check_flat(baseline, rows, failures):
    for rule in baseline["flat"]:
        where = f"{rule['table']} {rule['claim']} {rule['count']}"
        values = [r["counts"].get(rule["count"], 0)
                  for (table, claim, name), r in rows.items()
                  if table == rule["table"] and claim == rule["claim"]
                  and name not in rule.get("except", [])]
        if not values:
            failures.append(f"{where}: no rows in the current run")
            continue
        lo, hi = min(values), max(values)
        if hi > lo * (1 + rule["within"]):
            failures.append(f"{where}: spreads {lo}..{hi} over "
                            f"{len(values)} rows, more than "
                            f"{rule['within']:.0%} (the claim is flat)")
        else:
            print(f"ok   {where}: {lo}..{hi} over {len(values)} rows")
    return f"{len(baseline['flat'])} flat claims"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True, nargs="+",
                        help="bench_table1 / bench_table2 --json files")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    runs, error = load_runs(args.current, baseline)
    if error:
        print(f"check_tables: {error}")
        return 1
    rows = {(table, r["claim"], r["name"]): r
            for table, run in runs.items() for r in run["rows"]}

    failures, warnings = [], []
    summary = [check_cells(baseline, rows, failures, warnings),
               check_rows(baseline, runs, rows, failures),
               check_flat(baseline, rows, failures)]
    for w in warnings:
        print(f"WARN {w}")
    for f in failures:
        print(f"FAIL {f}")
    print(f"check_tables: {', '.join(summary)}; {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
