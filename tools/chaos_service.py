#!/usr/bin/env python3
"""Chaos/fault-injection soundness gate for the verification service.

Generates seeded BLIF pairs with KNOWN ground truth (make_fuzz_pair) and
replays each through eda_service under a deterministic fault schedule
(--faults seed=S,rate=R,sites=...), in both the whole-pair and the
--incremental configuration.  The injector raises BDD pool failures,
allocation failures, worker-thread exceptions, batched-pool failures and
torn cache writes at the instrumented sites; the gate then asserts the
fault-tolerance contract:

  * ZERO wrong verdicts: every COMPLETED verdict must match the
    generator's ground truth — faults may cost answers, never corrupt
    them;
  * classified failures: a job without an answer must carry a
    failure-class verdict (TIMEOUT, RESOURCE_EXHAUSTED, INTERNAL_ERROR,
    ... or UNKNOWN), never a bare crash;
  * bounded retries: per-job attempts <= --max-retries + 1;
  * no crashes: exit status 0 or 1 only, never a signal or usage error.

A separate merge-on-save phase runs two CONCURRENT eda_service processes
against one --cache-file on disjoint corpora and then replays the union:
both verdicts must come back as cache hits, i.e. neither writer's entries
were lost to the save race.

A daemon-kill phase runs known-truth batches through --cache-server with
an eda_cached daemon that is SIGKILLed mid-batch — once with the
serialized --cache-pool 1 client and once with the pipelined
--cache-pool 4 client, a fresh daemon each — then a final batch
against a daemon address that never answered at all.  The remote tier is
an optimisation, never an authority: every run must complete every job
with the ground-truth verdict (failures classified, never wrong), and
the dead-from-the-start run must report the degradation it survived.

On failure, the case's BLIFs, manifest and service JSON land in
--out-dir (uploaded as a CI artifact); the printed seed and fault spec
reproduce the schedule bit-for-bit.

Exit status: 0 all schedules hold the contract, 1 any violation, 2 usage.
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
SITES = [
    "engine_bdd",
    "engine_bdd+alloc",
    "alloc+worker",
    "engine_bdd+batch_pool",
    "cache_write+engine_bdd",
]
RATES = [0.1, 0.3, 0.6]
MAX_RETRIES = 3
DEFAULT_SEED_BASE = 0xC4405

ANSWER_VERDICTS = {"EQUIV", "NONEQUIV"}
FAILURE_VERDICTS = {
    "TIMEOUT", "RESOURCE_EXHAUSTED", "INTERNAL_ERROR", "DEADLINE_EXPIRED",
    "RETRY_LATER", "INVALID_REQUEST", "UNKNOWN",
}


def ground_truth(build, case_dir, seed, edit, cones, timeout):
    gen = subprocess.run(
        [os.path.join(build, "make_fuzz_pair"), "--dir", case_dir,
         "--seed", str(seed), "--cones", str(cones), "--edit", edit],
        capture_output=True, text=True, timeout=timeout)
    if gen.returncode != 0:
        raise RuntimeError(f"make_fuzz_pair failed (rc={gen.returncode}): "
                           f"{gen.stderr.strip()}")
    truth = {}
    for line in gen.stdout.splitlines():
        for tok in line.split():
            k, _, v = tok.partition("=")
            if _:
                truth[k] = v
    return truth


def run_schedule(build, case_dir, seed, edit, fault, cones, timeout):
    """One fault schedule: the seeded pair under injection, whole-pair and
    incremental.  Returns (failures, artifacts)."""
    failures = []
    artifacts = []
    truth = ground_truth(build, case_dir, seed, edit, cones, timeout)
    expect_equiv = truth.get("expect") == "EQ"
    artifacts += [os.path.join(case_dir, n)
                  for n in ("a.blif", "b.blif", "pair.manifest")]

    for tag, extra in (("whole", []), ("inc", ["--incremental"])):
        out_json = os.path.join(case_dir, f"chaos_{tag}.json")
        artifacts.append(out_json)
        cmd = [os.path.join(build, "eda_service"),
               "--manifest", os.path.join(case_dir, "pair.manifest"),
               "--faults", fault, "--max-retries", str(MAX_RETRIES),
               "--json", out_json] + extra
        try:
            svc = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=timeout)
        except subprocess.TimeoutExpired:
            failures.append(f"[{tag}] eda_service hung (> {timeout}s)")
            continue
        if svc.returncode not in (0, 1):
            failures.append(
                f"[{tag}] eda_service crashed under faults "
                f"(rc={svc.returncode}): {svc.stderr.strip()[-500:]}")
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
        verdict = r.get("verdict", "")
        # The soundness core: a completed answer must match ground truth.
        if r["completed"] and r["equivalent"] != expect_equiv:
            failures.append(
                f"[{tag}] WRONG VERDICT under faults: service says "
                f"{'EQUIV' if r['equivalent'] else 'NONEQUIV'}, generator "
                f"says {truth.get('expect')}")
        if r["completed"] and verdict not in ANSWER_VERDICTS:
            failures.append(
                f"[{tag}] completed job carries non-answer verdict "
                f"{verdict!r}")
        if not r["completed"] and verdict not in FAILURE_VERDICTS:
            failures.append(
                f"[{tag}] unanswered job carries unclassified verdict "
                f"{verdict!r}")
        if r.get("attempts", 0) > MAX_RETRIES + 1:
            failures.append(
                f"[{tag}] retry bound violated: attempts={r['attempts']} "
                f"> max_retries+1={MAX_RETRIES + 1}")
        if svc.returncode == 0 and verdict not in ANSWER_VERDICTS:
            failures.append(
                f"[{tag}] exit 0 despite failure-class verdict {verdict!r}")
    return failures, artifacts


def run_merge_phase(build, tmp, seed, cones, timeout):
    """Two concurrent writers share one cache file on disjoint corpora;
    the union replay must hit the cache for BOTH — merge-on-save lost
    nothing.  Returns (failures, artifacts)."""
    failures = []
    artifacts = []
    cache = os.path.join(tmp, "shared_cache.bin")
    manifests = []
    for side in (0, 1):
        d = os.path.join(tmp, f"merge_{side}")
        truth = ground_truth(build, d, seed + side, "equivalent", cones,
                             timeout)
        if truth.get("expect") != "EQ":
            failures.append(f"[merge] generator broke: side {side} not EQ")
            return failures, artifacts
        manifests.append(os.path.join(d, "pair.manifest"))
        artifacts += [os.path.join(d, n) for n in ("a.blif", "b.blif",
                                                   "pair.manifest")]

    procs = []
    for side, manifest in enumerate(manifests):
        out_json = os.path.join(tmp, f"merge_writer{side}.json")
        artifacts.append(out_json)
        procs.append(subprocess.Popen(
            [os.path.join(build, "eda_service"), "--manifest", manifest,
             "--cache-file", cache, "--json", out_json],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    for side, p in enumerate(procs):
        try:
            _, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            failures.append(f"[merge] writer {side} hung")
            continue
        if p.returncode != 0:
            failures.append(f"[merge] writer {side} failed "
                            f"(rc={p.returncode}): {err.strip()[-300:]}")
    if failures:
        return failures, artifacts

    combined = os.path.join(tmp, "merge_union.manifest")
    with open(combined, "w") as out:
        for side, manifest in enumerate(manifests):
            with open(manifest) as f:
                # Re-label so the two jobs stay distinguishable in the JSON.
                out.write(f.read().replace("name=fuzz",
                                           f"name=fuzz{side}"))
    out_json = os.path.join(tmp, "merge_union.json")
    artifacts += [combined, out_json]
    svc = subprocess.run(
        [os.path.join(build, "eda_service"), "--manifest", combined,
         "--cache-file", cache, "--json", out_json],
        capture_output=True, text=True, timeout=timeout)
    if svc.returncode != 0:
        failures.append(f"[merge] union replay failed (rc={svc.returncode})")
        return failures, artifacts
    with open(out_json) as f:
        results = json.load(f)["results"]
    if len(results) != 2:
        failures.append(f"[merge] expected 2 union results, "
                        f"got {len(results)}")
        return failures, artifacts
    for r in results:
        if not r["completed"] or not r["equivalent"]:
            failures.append(f"[merge] union job {r['name']} lost its "
                            f"verdict: {r.get('verdict')}")
        if not r["result_cache_hit"]:
            failures.append(
                f"[merge] union job {r['name']} MISSED the shared cache — "
                f"a concurrent save dropped the other writer's entries")
    return failures, artifacts


def build_fleet_corpus(build, ddir, seed, cones, timeout, jobs):
    """A combined manifest of `jobs` known-truth pairs with mixed edits.
    Returns (expectations by job name, manifest path, artifacts)."""
    expect = {}
    artifacts = []
    combined = os.path.join(ddir, "fleet.manifest")
    with open(combined, "w") as out:
        for i in range(jobs):
            d = os.path.join(ddir, f"pair_{i}")
            edit = EDITS[i % len(EDITS)]
            truth = ground_truth(build, d, seed + i, edit, cones, timeout)
            name = f"fleet{i}"
            expect[name] = truth.get("expect") == "EQ"
            with open(os.path.join(d, "pair.manifest")) as f:
                out.write(f.read().replace("name=fuzz", f"name={name}"))
            artifacts += [os.path.join(d, n)
                          for n in ("a.blif", "b.blif", "pair.manifest")]
    artifacts.append(combined)
    return expect, combined, artifacts


def check_fleet_run(tag, svc, out_json, expect, failures):
    """The remote-tier soundness contract for one batch: no crash, every
    completed verdict matches ground truth, the rest classified."""
    if svc.returncode not in (0, 1):
        failures.append(f"[{tag}] eda_service crashed (rc={svc.returncode})")
        return None
    try:
        with open(out_json) as f:
            run = json.load(f)
    except (OSError, ValueError) as e:
        failures.append(f"[{tag}] unreadable service JSON: {e}")
        return None
    results = run.get("results", [])
    if len(results) != len(expect):
        failures.append(f"[{tag}] expected {len(expect)} results, "
                        f"got {len(results)}")
        return run
    for r in results:
        verdict = r.get("verdict", "")
        if r["completed"]:
            if r["equivalent"] != expect.get(r["name"]):
                failures.append(
                    f"[{tag}] WRONG VERDICT for {r['name']} with a dying "
                    f"cache daemon: service says "
                    f"{'EQUIV' if r['equivalent'] else 'NONEQUIV'}")
            if verdict not in ANSWER_VERDICTS:
                failures.append(f"[{tag}] completed job {r['name']} carries "
                                f"non-answer verdict {verdict!r}")
        elif verdict not in FAILURE_VERDICTS:
            failures.append(f"[{tag}] unanswered job {r['name']} carries "
                            f"unclassified verdict {verdict!r}")
    return run


def run_daemon_kill_phase(build, tmp, seed, cones, timeout):
    """The remote cache tier under daemon loss: batches whose eda_cached
    is SIGKILLed mid-flight — once through the serialized pool=1 client
    and once through the pipelined pool=4 client, each against a
    fresh daemon — plus one batch against a daemon that never existed.
    Verdicts must stay ground-truth sound every way.  Returns
    (failures, artifacts)."""
    failures = []
    ddir = os.path.join(tmp, "daemon_kill")
    os.makedirs(ddir, exist_ok=True)
    expect, manifest, artifacts = build_fleet_corpus(
        build, ddir, seed, cones, timeout, jobs=8)

    for pool in (1, 4):
        tag = f"daemon-kill-pool{pool}"
        sock = os.path.join(ddir, f"cached_pool{pool}.sock")
        daemon = subprocess.Popen(
            [os.path.join(build, "eda_cached"), "--socket", sock],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            for _ in range(100):
                if os.path.exists(sock):
                    break
                time.sleep(0.05)
            else:
                failures.append(f"[{tag}] eda_cached never bound its "
                                "socket")
                continue

            out_json = os.path.join(ddir, f"daemon_kill_pool{pool}.json")
            artifacts.append(out_json)
            svc = subprocess.Popen(
                [os.path.join(build, "eda_service"), "--manifest", manifest,
                 "--jobs", "2", "--cache-server", "unix:" + sock,
                 "--cache-pool", str(pool), "--json", out_json],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            time.sleep(1.0)  # let the batch get going, then pull the plug
            daemon.kill()
            daemon.wait()
            try:
                svc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                svc.kill()
                failures.append(f"[{tag}] eda_service hung after the "
                                "daemon was killed mid-batch")
                return failures, artifacts
            check_fleet_run(tag, svc, out_json, expect, failures)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    # Dead from the very start: degradation must be immediate, visible in
    # the accounting, and cost nothing but the round trips.
    out_json = os.path.join(ddir, "daemon_dead.json")
    artifacts.append(out_json)
    svc = subprocess.run(
        [os.path.join(build, "eda_service"), "--manifest", manifest,
         "--jobs", "2",
         "--cache-server", "unix:" + os.path.join(ddir, "never.sock"),
         "--json", out_json],
        capture_output=True, text=True, timeout=timeout)
    run = check_fleet_run("daemon-dead", svc, out_json, expect, failures)
    if run is not None:
        if run.get("backend") != "remote":
            failures.append(f"[daemon-dead] backend is "
                            f"{run.get('backend')!r}, expected 'remote'")
        if run.get("remote_failures", 0) < 1:
            failures.append("[daemon-dead] no transport failure recorded "
                            "against a daemon that never existed")
    return failures, artifacts


def main():
    ap = argparse.ArgumentParser(
        description="chaos-test eda_service under deterministic fault "
                    "injection")
    ap.add_argument("--build-dir", default="build",
                    help="directory holding make_fuzz_pair and eda_service")
    ap.add_argument("--schedules", type=int, default=24,
                    help="number of fault schedules (default 24)")
    ap.add_argument("--cones", type=int, default=16,
                    help="output cones per generated pair (default 16)")
    ap.add_argument("--seed-base", type=lambda s: int(s, 0), default=None,
                    help="first seed; default EDA_SEED env or 0xc4405")
    ap.add_argument("--timeout", type=float, default=180.0,
                    help="per-process timeout in seconds")
    ap.add_argument("--out-dir", default="chaos_artifacts",
                    help="where failing schedules' repro files are kept")
    ap.add_argument("--skip-merge", action="store_true",
                    help="skip the two-writer merge-on-save phase")
    ap.add_argument("--skip-daemon", action="store_true",
                    help="skip the kill-eda_cached-mid-batch phase")
    args = ap.parse_args()

    base = args.seed_base
    if base is None:
        try:
            base = int(os.environ.get("EDA_SEED", ""), 0)
        except ValueError:
            base = DEFAULT_SEED_BASE
    print(f"chaos_service: {args.schedules} fault schedules from seed base "
          f"{base}, {args.cones}-cone pairs, max_retries={MAX_RETRIES}")

    for tool in ("make_fuzz_pair", "eda_service"):
        path = os.path.join(args.build_dir, tool)
        if not (os.path.exists(path) or os.path.exists(path + ".exe")):
            print(f"chaos_service: {path} not found (build first)",
                  file=sys.stderr)
            return 2

    failed = []
    with tempfile.TemporaryDirectory(prefix="chaos_service.") as tmp:
        for i in range(args.schedules):
            seed = base + i
            edit = EDITS[i % len(EDITS)]
            sites = SITES[i % len(SITES)]
            rate = RATES[i % len(RATES)]
            fault = f"seed={seed},rate={rate},sites={sites}"
            case_dir = os.path.join(tmp, f"sched_{seed}")
            try:
                failures, artifacts = run_schedule(
                    args.build_dir, case_dir, seed, edit, fault,
                    args.cones, args.timeout)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                failures, artifacts = [str(e)], []
            if failures:
                failed.append((seed, edit, fault))
                keep = os.path.join(args.out_dir, f"sched_{seed}")
                os.makedirs(keep, exist_ok=True)
                for path in artifacts:
                    if os.path.exists(path):
                        shutil.copy(path, keep)
                print(f"FAIL seed={seed} edit={edit} faults='{fault}'  "
                      f"(repro files in {keep})")
                for f in failures:
                    print(f"     {f}")
            else:
                print(f"ok   seed={seed} edit={edit} faults='{fault}'")

        if not args.skip_merge:
            try:
                failures, artifacts = run_merge_phase(
                    args.build_dir, tmp, base + 100_000, args.cones,
                    args.timeout)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                failures, artifacts = [str(e)], []
            if failures:
                failed.append((base + 100_000, "merge", "-"))
                keep = os.path.join(args.out_dir, "merge")
                os.makedirs(keep, exist_ok=True)
                for path in artifacts:
                    if os.path.exists(path):
                        shutil.copy(path, keep)
                print(f"FAIL merge-on-save phase (repro files in {keep})")
                for f in failures:
                    print(f"     {f}")
            else:
                print("ok   merge-on-save: 2 concurrent writers, "
                      "union preserved")

        if not args.skip_daemon:
            try:
                failures, artifacts = run_daemon_kill_phase(
                    args.build_dir, tmp, base + 200_000, args.cones,
                    args.timeout)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                failures, artifacts = [str(e)], []
            if failures:
                failed.append((base + 200_000, "daemon-kill", "-"))
                keep = os.path.join(args.out_dir, "daemon_kill")
                os.makedirs(keep, exist_ok=True)
                for path in artifacts:
                    if os.path.exists(path):
                        shutil.copy(path, keep)
                print(f"FAIL daemon-kill phase (repro files in {keep})")
                for f in failures:
                    print(f"     {f}")
            else:
                print("ok   daemon-kill: eda_cached SIGKILLed mid-batch "
                      "and absent entirely; every verdict ground-truth "
                      "sound, failures classified")

    if failed:
        print(f"\nchaos_service: {len(failed)} schedule(s) VIOLATED the "
              f"fault-tolerance contract:")
        for seed, edit, fault in failed:
            print(f"  seed={seed} edit={edit} faults='{fault}'")
        return 1
    print(f"chaos_service: all {args.schedules} schedules "
          f"(+ merge phase) hold: no wrong verdicts, bounded retries, "
          f"classified failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
