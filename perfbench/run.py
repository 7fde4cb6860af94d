#!/usr/bin/env python3
"""The repository benchmark: closed-loop service workloads and a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload hash_retime --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark and the system under test from source (CMake, Release)
into .bench_build/, generates the workload's inputs from --seed, and prints
as the last stdout line one JSON object with `correct`, `attempted`,
`failed` and `metrics`:

  --trace 0  the end-to-end metrics of a 2-client closed-loop run of the
             workload (timed for --seconds after a warm-up);
  --trace 1  the per-layer metrics of the one-thread traced replay, which
             replays a small sample of every workload's inputs (each layer's
             numbers come from the workload where that layer does its work,
             see perfbench/README.md) and writes the spans as Chrome
             trace-event JSON to .bench_build/perfbench-trace-<seed>.json.

Exits nonzero on a wrong verdict or when the sources cannot be built.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(ROOT, BUILD_REL, "perfbench")

BUILD_JOBS = 4
# Set-up time is the median over this many processes: the run's own and
# SETUP_SAMPLES - 1 that only set up.
SETUP_SAMPLES = 11

# Workload and metric names with their units, as BENCHMARK.json declares
# them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    pass


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no system sources next to perfbench/ in " + ROOT)
    build_dir = os.path.join(ROOT, BUILD_REL)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(BUILD_JOBS)],
                   cwd=ROOT, stdout=sys.stderr, check=True)


def tool(mode, workload, work, *extra, timeout=170, spawn=False):
    """Run one perfbench mode; echo its report, return its JSON line."""
    cmd = [BINARY, mode, "--workload", workload, "--dir", work] + list(extra)
    if spawn:
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench %s %s exited %d"
                         % (mode, workload, proc.returncode))
    return json.loads(lines[-1])


def end_to_end(args, work):
    tool("prep", args.workload, work, "--seed", str(args.seed),
         "--seconds", str(args.seconds))
    warm = []
    if args.workload == "edit_replay":
        # Every process loads a private copy: the daemon snapshots its
        # store on exit, and the next process must start from the base
        # verdicts only.
        for k in range(SETUP_SAMPLES):
            path = os.path.join(work, "warm-%d.bin" % k)
            shutil.copyfile(os.path.join(ROOT, work, "warm.bin"),
                            os.path.join(ROOT, path))
            warm.append(["--warm", path])
    else:
        warm = [[] for _ in range(SETUP_SAMPLES)]
    run = tool("run", args.workload, work, "--seconds", str(args.seconds),
               *warm[0], spawn=True)
    setups = [run["setup_s"]]
    for k in range(1, SETUP_SAMPLES):
        setups.append(tool("setup", args.workload, work, *warm[k],
                           spawn=True)["setup_s"])
    print("  setup_s samples: " + " ".join("%.6f" % s for s in setups))
    values = dict(run, setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return {"correct": run["wrong"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def traced(args, work):
    metrics, wall_on, wall_off = {}, 0.0, 0.0
    jobs = wrong = 0
    events = []
    for pid, workload in enumerate(WORKLOADS, start=1):
        wdir = os.path.join(work, workload)
        os.makedirs(os.path.join(ROOT, wdir))
        tool("prep", workload, wdir, "--seed", str(args.seed), "--sample")
        part = os.path.join(wdir, "trace.json")

        def replay(record):
            flags = ["--record", "1", "--trace-out", part] if record else \
                ["--record", "0"]
            return tool("replay", workload, wdir, *flags)

        # Alternate which replay runs first, so drift over the run does not
        # land on one side of the overhead comparison.
        if pid % 2:
            on, off = replay(True), replay(False)
        else:
            off, on = replay(False), replay(True)
        metrics.update(on["metrics"])
        wall_on += on["replay_wall_s"]
        wall_off += off["replay_wall_s"]
        jobs += on["jobs"]
        wrong += on["wrong"] + off["wrong"]
        with open(os.path.join(ROOT, part)) as f:
            for ev in json.load(f)["traceEvents"]:
                ev["pid"] = pid
                events.append(ev)
    metrics["trace.overhead_frac"] = wall_on / wall_off - 1.0
    print("  trace.overhead_frac: traced %.4f s vs untraced %.4f s"
          % (wall_on, wall_off))
    out = os.path.join(ROOT, ".bench_build",
                       "perfbench-trace-%d.json" % args.seed)
    with open(out, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    print("  trace written to " + os.path.relpath(out, ROOT))
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        raise BenchError("traced replay did not report " + ", ".join(missing))
    return {"correct": wrong == 0, "attempted": jobs, "failed": wrong,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in PER_LAYER.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    work = os.path.join(".bench_build", "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        build()
        os.makedirs(os.path.join(ROOT, work))
        result = (traced if args.trace else end_to_end)(args, work)
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
