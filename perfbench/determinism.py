#!/usr/bin/env python3
"""Which per-layer counts repeat exactly: the traced replay, twice, one seed.

A count-based claim (inferences, new terms, tier shares, round trips, BDD
nodes, image steps) may rest only on a count this check marks as
repeating.  Run from the repository root:

    python3 perfbench/determinism.py [--seed 1]
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced(seed):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "hash_retime", "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    first, second = traced(seed), traced(seed)
    print("%-36s %14s %14s  %s" % ("metric", "run 1", "run 2", "repeats"))
    for name, m in first.items():
        if m["unit"] not in ("count", "frac") or name == "trace.overhead_frac":
            continue
        a, b = m["value"], second[name]["value"]
        print("%-36s %14.6g %14.6g  %s" % (name, a, b,
                                           "yes" if a == b else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
