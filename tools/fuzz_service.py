#!/usr/bin/env python3
"""Continuous fuzz/soundness gate for the verification service.

Generates seeded BLIF pairs with KNOWN ground truth (make_fuzz_pair:
testlib random_netlist_multi + per-cone edits with known semantics) and
pushes each through eda_service under every engine (eijk, eijk+, smv,
sis — the method token of make_fuzz_pair's manifest, rewritten per run),
each in five configurations:

    whole-pair            whole-pair --no-sim
    --incremental         --incremental --no-sim
    inc_remote: --incremental --cache-server, run cold and then warm

failing the run if ANY run crashes, hangs, or disagrees with the
generator's ground truth.  The sim-vs-no-sim axis is the soundness gate
for the bit-parallel pre-filter (a refutation the engine would not have
produced is a lane-semantics bug); the incremental axis runs the same
question as per-cone obligations on one shared-pool batch instead of one
whole-pair obligation; the engine axis pins the one BDD traversal's
three modes and the explicit-state SIS engine to the same truth.

inc_remote crosses the wire: one eda_cached daemon, started for the whole
fuzz run, serves every case.  The first run of each case and engine
publishes its cone verdicts to the daemon; the second, a fresh process,
must take every cone from it (cone_hits == cones) and still agree with
the ground truth, so a verdict that the remote tier corrupts on the way
out or back fails the run.

Counterexample names are checked for *presence*, not exact spelling:
with several edited cones the simulator may legitimately surface a
different output than the generator's first edit.  But a sim-refuted
NONEQUIV verdict with no concrete counterexample is a reporting bug and
fails.

One fixed case rides along: a DEEP_CHAIN-level inverter chain against
itself (EQUIV) and against a chain one inverter longer (NONEQUIV), under
the same engines and configurations.  It pins that logic depth is bounded
by memory, never by a call stack: a reader that recursed per level died
with SIGSEGV on it.

On failure the case's BLIFs, manifest and all service JSON land in
--out-dir (uploaded as a CI artifact); the printed seed reproduces the
case exactly:

    build/make_fuzz_pair --dir repro --seed <seed> --edit <edit>

Exit status: 0 all cases agree, 1 any disagreement/crash, 2 usage.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

EDITS = ["equivalent", "opaque", "different", "mixed"]
ENGINES = ["eijk", "eijk+", "smv", "sis"]
CONFIGS = [
    ("sim", []),
    ("nosim", ["--no-sim"]),
    ("inc_sim", ["--incremental"]),
    ("inc_nosim", ["--incremental", "--no-sim"]),
]
DEFAULT_SEED_BASE = 0x5EEDF17E
DEEP_CHAIN = 100000


def run_case(build, case_dir, seed, edit, timeout, server):
    """Returns (failures, artifacts) for one seeded case; artifacts is a
    list of file paths worth keeping when failures is non-empty."""
    failures = []
    artifacts = []

    gen = subprocess.run(
        [os.path.join(build, "make_fuzz_pair"), "--dir", case_dir,
         "--seed", str(seed), "--edit", edit],
        capture_output=True, text=True, timeout=timeout)
    if gen.returncode != 0:
        return ([f"make_fuzz_pair failed (rc={gen.returncode}): "
                 f"{gen.stderr.strip()}"], artifacts)
    truth = {}
    for line in gen.stdout.splitlines():
        if "=" in line:
            for tok in line.split():
                k, _, v = tok.partition("=")
                truth[k] = v
    expect_equiv = truth.get("expect") == "EQ"
    artifacts += [os.path.join(case_dir, n)
                  for n in ("a.blif", "b.blif", "pair.manifest")]

    with open(os.path.join(case_dir, "pair.manifest")) as f:
        manifest = f.read().split()
    failures += run_engines(build, case_dir, manifest, expect_equiv,
                            timeout, artifacts, server)
    return (failures, artifacts)


def run_engines(build, case_dir, manifest, expect_equiv, timeout,
                artifacts, server):
    """Run one pair manifest under every engine and configuration, the
    inc_remote passes against the daemon at `server`; returns the failures
    and appends the files worth keeping to artifacts."""
    failures = []
    runs = []
    for engine in ENGINES:
        stem = engine.replace("+", "plus")
        path = os.path.join(case_dir, f"pair_{stem}.manifest")
        with open(path, "w") as f:
            f.write(" ".join(manifest[:1] + [engine] + manifest[2:]) + "\n")
        artifacts.append(path)
        for tag, extra in CONFIGS:
            runs.append((f"{stem}_{tag}", path, extra))
        for remote_pass in ("cold", "warm"):
            runs.append((f"{stem}_inc_remote_{remote_pass}", path,
                         ["--incremental", "--cache-server", server]))
    for tag, manifest_path, extra in runs:
        out_json = os.path.join(case_dir, f"result_{tag}.json")
        artifacts.append(out_json)
        cmd = [os.path.join(build, "eda_service"),
               "--manifest", manifest_path, "--json", out_json] + extra
        try:
            svc = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=timeout)
        except subprocess.TimeoutExpired:
            failures.append(f"[{tag}] eda_service hung (> {timeout}s)")
            continue
        # rc 1 is eda_service's documented "some job failed" status — the
        # JSON check below reports the specific job; anything else
        # (usage rc 2, signals rc < 0) is a crash/driver bug.
        if svc.returncode not in (0, 1):
            failures.append(
                f"[{tag}] eda_service crashed (rc={svc.returncode}): "
                f"{svc.stderr.strip()[-500:]}")
            continue
        try:
            with open(out_json) as f:
                results = json.load(f)["results"]
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"[{tag}] unreadable service JSON: {e}")
            continue
        if len(results) != 1:
            failures.append(f"[{tag}] expected 1 result, got {len(results)}")
            continue
        r = results[0]
        if not r["ok"] or not r["completed"]:
            failures.append(
                f"[{tag}] job did not complete: ok={r['ok']} "
                f"completed={r['completed']} error={r.get('error', '')!r}")
            continue
        if r["equivalent"] != expect_equiv:
            failures.append(
                f"[{tag}] VERDICT DISAGREES with ground truth: service says "
                f"{'EQUIV' if r['equivalent'] else 'NONEQUIV'}, generator "
                f"says {truth.get('expect')}")
        if "nosim" in tag and r.get("sim_refuted", 0) > 0:
            failures.append(
                f"[{tag}] sim_refuted={r['sim_refuted']} although the "
                f"pre-filter was disabled")
        if r.get("sim_refuted", 0) > 0 and not r.get("counterexample"):
            failures.append(
                f"[{tag}] sim-refuted verdict carries no concrete "
                f"counterexample")
        if tag.endswith("_warm") and r.get("cone_hits") != r.get("cones"):
            failures.append(
                f"[{tag}] warm replay took {r.get('cone_hits')} of "
                f"{r.get('cones')} cones from the cache daemon, expected "
                f"all of them")
    return failures


def write_chain(path, depth):
    """BLIF of `depth` inverters from input x to output y."""
    lines = [".model chain", ".inputs x", ".outputs y"]
    prev = "x"
    for i in range(depth):
        lines += [f".names {prev} n{i}", "0 1"]
        prev = f"n{i}"
    lines += [f".names {prev} y", "1 1", ".end", ""]
    with open(path, "w") as f:
        f.write("\n".join(lines))


def run_deep_case(build, case_dir, timeout, server):
    """The fixed deep-chain case: (failures, artifacts)."""
    os.makedirs(case_dir, exist_ok=True)
    a = os.path.join(case_dir, "chain.blif")
    b = os.path.join(case_dir, "chain_plus1.blif")
    write_chain(a, DEEP_CHAIN)
    write_chain(b, DEEP_CHAIN + 1)
    failures, artifacts = [], []
    for sub, other, expect_equiv in (("same", a, True),
                                     ("longer", b, False)):
        sub_dir = os.path.join(case_dir, sub)
        os.makedirs(sub_dir, exist_ok=True)
        manifest = [f"blif:{a},{other}", "eijk", "timeout=60", "name=deep"]
        failures += [f"{sub} {f}" for f in run_engines(
            build, sub_dir, manifest, expect_equiv, timeout, artifacts,
            server)]
    return (failures, artifacts)


def run_cases(args, base, tmp, server, failed_seeds):
    """Every seeded case, then the deep chain, against the daemon at
    `server`; appends each failing case to failed_seeds."""
    for i in range(args.cases):
        seed = base + i
        edit = EDITS[i % len(EDITS)]
        case_dir = os.path.join(tmp, f"case_{seed}")
        try:
            failures, artifacts = run_case(
                args.build_dir, case_dir, seed, edit, args.timeout, server)
        except subprocess.TimeoutExpired:
            failures, artifacts = ["make_fuzz_pair hung"], []
        if failures:
            failed_seeds.append((seed, edit))
            keep = os.path.join(args.out_dir, f"seed_{seed}_{edit}")
            os.makedirs(keep, exist_ok=True)
            for path in artifacts:
                if os.path.exists(path):
                    shutil.copy(path, keep)
            print(f"FAIL seed={seed} edit={edit}  "
                  f"(repro files in {keep})")
            for f in failures:
                print(f"     {f}")
        else:
            print(f"ok   seed={seed} edit={edit}")
    # Chain files are regenerated by this script, so a failure keeps
    # only the service JSON.
    case_dir = os.path.join(tmp, "deep_chain")
    failures, artifacts = run_deep_case(args.build_dir, case_dir,
                                        args.timeout, server)
    if failures:
        failed_seeds.append(("deep_chain", DEEP_CHAIN))
        keep = os.path.join(args.out_dir, "deep_chain")
        os.makedirs(keep, exist_ok=True)
        for path in artifacts:
            if path.endswith(".json") and os.path.exists(path):
                shutil.copy(path, os.path.join(
                    keep, os.path.basename(os.path.dirname(path)) + "_" +
                    os.path.basename(path)))
        print(f"FAIL deep_chain depth={DEEP_CHAIN}  (JSON in {keep})")
        for f in failures:
            print(f"     {f}")
    else:
        print(f"ok   deep_chain depth={DEEP_CHAIN}")


def main():
    ap = argparse.ArgumentParser(
        description="fuzz eda_service against known-truth seeded pairs")
    ap.add_argument("--build-dir", default="build",
                    help="directory holding make_fuzz_pair, eda_service "
                         "and eda_cached")
    ap.add_argument("--cases", type=int, default=24,
                    help="number of seeded cases (default 24)")
    ap.add_argument("--seed-base", type=lambda s: int(s, 0), default=None,
                    help="first seed; default EDA_SEED env or 0x5eedf17e")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-process timeout in seconds")
    ap.add_argument("--out-dir", default="fuzz_artifacts",
                    help="where failing cases' repro files are kept")
    args = ap.parse_args()

    base = args.seed_base
    if base is None:
        try:
            base = int(os.environ.get("EDA_SEED", ""), 0)
        except ValueError:
            base = DEFAULT_SEED_BASE
    print(f"fuzz_service: {args.cases} cases from seed base {base} "
          f"(override with EDA_SEED or --seed-base)")

    for tool in ("make_fuzz_pair", "eda_service", "eda_cached"):
        path = os.path.join(args.build_dir, tool)
        if not (os.path.exists(path) or os.path.exists(path + ".exe")):
            print(f"fuzz_service: {path} not found (build first)",
                  file=sys.stderr)
            return 2

    failed_seeds = []
    with tempfile.TemporaryDirectory(prefix="fuzz_service.") as tmp:
        sock = os.path.join(tmp, "cached.sock")
        daemon = subprocess.Popen(
            [os.path.join(args.build_dir, "eda_cached"), "--socket", sock],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            for _ in range(100):
                if os.path.exists(sock):
                    break
                time.sleep(0.05)
            else:
                print("fuzz_service: eda_cached never bound its socket",
                      file=sys.stderr)
                return 1
            run_cases(args, base, tmp, "unix:" + sock, failed_seeds)
        finally:
            daemon.terminate()
            daemon.wait()


    if failed_seeds:
        print(f"\nfuzz_service: {len(failed_seeds)}/{args.cases + 1} cases "
              f"FAILED: " +
              ", ".join(f"{s} ({e})" for s, e in failed_seeds))
        print("reproduce one with: "
              f"{args.build_dir}/make_fuzz_pair --dir repro "
              f"--seed <seed> --edit <edit>")
        return 1
    print(f"fuzz_service: all {args.cases} cases and the deep chain agree "
          f"with ground truth")
    return 0


if __name__ == "__main__":
    sys.exit(main())
