#!/usr/bin/env python3
"""Self-test of tools/check_tables.py: mutated tables must fail the gate.

Usage:
    check_tables_selftest.py --baseline bench/baselines/TABLES.baseline.json \
        --current TABLE1.json TABLE2.json

Runs the gate on the unmodified JSON, which must pass, and then on
mutated copies, each of which must fail it for the stated reason:

- one extra HASH inference on one Table I row (the exact count gate);
- Table I's HASH inferences growing 15 % per n (the exact count gate);
- the same growth in the baseline too, as a careless re-record would
  have it (the flat-claim gate alone).

The counts must be ones the baseline gates, so the JSON has to come from
a build of the baseline's compiler family.  Exit status 1 when any case
goes the wrong way.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_tables.py")


def run_gate(baseline, runs):
    """(exit status, FAIL lines) of the gate on these documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate([baseline] + runs):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        out = subprocess.run([sys.executable, GATE, "--baseline", paths[0],
                              "--current", *paths[1:]],
                             capture_output=True, text=True, check=False)
    fails = [line for line in out.stdout.splitlines()
             if line.startswith("FAIL")]
    return out.returncode, fails


def table1_rows(rows):
    """Table I's rows for n >= 2, in n order (run or baseline rows)."""
    rows = [r for r in rows if r["claim"] == "table1" and int(r["name"]) >= 2]
    return sorted(rows, key=lambda r: int(r["name"]))


def grow(rows):
    """Makes Table I's HASH inferences grow 15 % from each n to the next."""
    for k, row in enumerate(table1_rows(rows)):
        counts = row["counts"]
        counts["hash_inferences"] = round(counts["hash_inferences"] * 1.15**k)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True, nargs="+")
    args = parser.parse_args()
    with open(args.baseline) as f:
        baseline = json.load(f)
    runs = []
    for path in args.current:
        with open(path) as f:
            runs.append(json.load(f))
    t1 = [i for i, run in enumerate(runs)
          if run["benchmark"] == "bench_table1"
          and run["compiler"] == baseline["compiler"]]
    if len(t1) != 1:
        print("check_tables_selftest: needs one bench_table1 JSON built by "
              f"{baseline['compiler']}, the baseline's compiler family")
        return 1
    t1 = t1[0]

    one_more = copy.deepcopy(runs)
    table1_rows(one_more[t1]["rows"])[-1]["counts"]["hash_inferences"] += 1
    growing = copy.deepcopy(runs)
    grow(growing[t1]["rows"])
    rerecorded = copy.deepcopy(baseline)
    grow(rerecorded["rows"])
    cases = [("one extra inference on one Table I row", baseline, one_more,
              "hash_inferences"),
             ("Table I inferences growing 15 % per n", baseline, growing,
              "hash_inferences"),
             ("the same growth, re-recorded in the baseline", rerecorded,
              growing, "spreads")]

    status, fails = run_gate(baseline, runs)
    ok = status == 0
    print(f"{'ok  ' if ok else 'FAIL'} unmodified tables: exit {status}")
    for fail in fails:
        print(f"       {fail}")
    for name, base, cur, reason in cases:
        status, fails = run_gate(base, cur)
        good = status == 1 and bool(fails) and all(reason in f
                                                   for f in fails)
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name}: exit {status}, "
              f"{len(fails)} failure(s) naming {reason!r}")
        for fail in fails[:3]:
            print(f"       {fail}")
    print(f"check_tables_selftest: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
