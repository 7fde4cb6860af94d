#!/usr/bin/env python3
"""Seconds-scale smoke run of every workload, plus the traced replay.

Fails when any run reports a wrong verdict, a failed job, or a metric set
other than the one BENCHMARK.json declares.  Run from the repository root:

    python3 perfbench/tests/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    runs = [(w["name"], 0) for w in spec["workloads"]]
    runs.append((spec["workloads"][0]["name"], 1))
    for workload, trace in runs:
        code, result = run(workload, trace)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"] for m in spec[kind]}
        label = "%s --trace %d" % (workload, trace)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            problems.append("%s: exit %d, %s" % (label, code, result))
        if set(result["metrics"]) != want:
            problems.append("%s: metrics %s"
                            % (label, sorted(result["metrics"])))
        print("%s: %d jobs, %d failed" % (label, result["attempted"],
                                          result["failed"]))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
