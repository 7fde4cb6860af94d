// eda_service — the multi-circuit verification service front end.
//
// Reads a job manifest (or expands a parameter-sweep grid), runs every job
// through service::VerifyService — many netlists in flight on the
// work-stealing pool, one shared theorem/verdict cache — and reports per-job
// results plus service-level cache and timing statistics, optionally as
// JSON.
//
//   eda_service --manifest FILE [options]
//   eda_service --sweep "widths=2,4;methods=hash,eijk;copies=3" [options]
//
// options:
//   --jobs N               concurrent job streams (default: hardware)
//   --serial               run jobs one at a time on the caller
//   --no-shared-cache      per-job proving, no cross-job amortisation
//   --incremental          cone-partitioned blif-pair jobs: per-output
//                          obligations keyed on canonical cone hashes, so
//                          a warm cache re-proves only the changed cones
//   --no-sim               disable the bit-parallel simulation pre-filter
//                          (obligations the identity and fold tiers leave
//                          go straight to their engine)
//   --sim-vectors N        random vectors per refutation attempt (default
//                          256, rounded up to whole 64-lane words)
//   --sim-seed S           stimulus seed for the pre-filter
//   --timeout S            override every job's engine timeout
//   --json FILE            write the structured results
//   --cache-file FILE      warm-start the shared caches from FILE (corrupt
//                          or missing files start cold, with a diagnostic)
//                          and save them back after the batch drains —
//                          merge-on-save under a lock file, so concurrent
//                          processes sharing FILE lose no entries
//   --cache-server ADDR    share the caches through an eda_cached daemon at
//                          ADDR ("unix:/path" or "host:port"): lookups and
//                          publishes go to the daemon, one batch frame
//                          each (an incremental cone sweep costs <= 2
//                          round trips); every publish also lands in an
//                          in-process fallback, and a dead, unreachable or
//                          foreign-version daemon degrades the client to
//                          that fallback (RETRY_LATER-style capped
//                          backoff) — verdicts are never lost and never
//                          wrong
//   --cache-pool N         remote-cache connection pool size (default 4):
//                          up to N exchanges pipeline on distinct sockets;
//                          1 restores the serialized single-socket client
//   --tenant NAME          tenant label for remote-cache requests and
//                          admission fairness (weighted round-robin across
//                          tenants within each priority level)
//   --require-cache-hits   exit 1 unless the shared caches served at least
//                          one obligation (CI gate for the service loop)
//   --max-retries N        extra attempts per obligation on a classified
//                          retryable failure (TIMEOUT, RESOURCE_EXHAUSTED,
//                          INTERNAL_ERROR), budgets escalating 2x per
//                          attempt with capped exponential backoff
//                          (default 2)
//   --deadline-ms N        per-job wall-clock deadline from admission:
//                          jobs still queued past it are skipped with a
//                          DEADLINE_EXPIRED verdict, dispatched jobs have
//                          their engine budget capped to the remainder
//   --queue-depth N        admission queue bound; jobs beyond it are
//                          rejected with a structured RETRY_LATER verdict
//                          carrying the queue depth (default: fits the
//                          whole manifest)
//   --faults SPEC          deterministic fault injection for chaos runs:
//                          seed=S,rate=R,sites=a+b (sites: engine_bdd,
//                          batch_pool, alloc, worker, cache_write,
//                          remote_stall); also read from EDA_FAULTS, the
//                          flag winning
//
// exit status: 0 every job ended EQUIV or NONEQUIV, 1 any job ended in a
// failure-class verdict (TIMEOUT, RESOURCE_EXHAUSTED, INTERNAL_ERROR,
// DEADLINE_EXPIRED, RETRY_LATER, INVALID_REQUEST, ...) or a gate was
// violated, 2 usage.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "kernel/parallel.h"
#include "service/admission.h"
#include "service/fault.h"
#include "service/manifest.h"
#include "service/sweep.h"
#include "service/verify_service.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "eda_service: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: eda_service (--manifest FILE | --sweep SPEC) [--jobs N]\n"
      "                   [--serial] [--no-shared-cache] [--incremental]\n"
      "                   [--no-sim] [--sim-vectors N] [--sim-seed S]\n"
      "                   [--timeout S] [--json FILE]\n"
      "                   [--cache-file FILE] [--cache-server ADDR]\n"
      "                   [--cache-pool N]\n"
      "                   [--tenant NAME] [--require-cache-hits]\n"
      "                   [--max-retries N] [--deadline-ms N]\n"
      "                   [--queue-depth N] [--faults SPEC]\n");
  std::exit(2);
}

const char* status_of(const eda::service::JobResult& r) {
  if (!r.ok) return "ERROR";
  switch (r.verdict) {
    case eda::service::VerdictClass::Equiv:
      return "EQ";
    case eda::service::VerdictClass::Nonequiv:
      return "NEQ";
    default:
      // A failure-class (or unknown) verdict prints its wire name, so the
      // table says WHY a job has no answer.
      return eda::service::verdict_class_name(r.verdict);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eda;

  std::optional<std::string> manifest_path, sweep_spec, json_path,
      cache_path, cache_server, tenant, fault_spec;
  std::optional<double> timeout, deadline_ms;
  std::optional<std::size_t> queue_depth;
  unsigned jobs = 0;
  bool serial = false, share_cache = true, require_hits = false,
       incremental = false, use_sim = true;
  int sim_vectors = 256;
  int max_retries = 2;
  int cache_pool = 4;
  std::optional<std::uint64_t> sim_seed;

  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    auto next = [&]() -> std::string {
      if (a + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++a];
    };
    try {
      // Strict numeric parsing throughout (full-token consumption), same
      // contract as the manifest/sweep parsers: --timeout 1O must not
      // silently become 1.0.
      std::size_t used = 0;
      if (arg == "--manifest") manifest_path = next();
      else if (arg == "--sweep") sweep_spec = next();
      else if (arg == "--jobs") {
        std::string v = next();
        int n = std::stoi(v, &used);
        if (used != v.size() || n < 1 || n > 1024) {
          usage("--jobs must be an integer in 1..1024");
        }
        jobs = static_cast<unsigned>(n);
      } else if (arg == "--serial") serial = true;
      else if (arg == "--no-shared-cache") share_cache = false;
      else if (arg == "--incremental") incremental = true;
      else if (arg == "--no-sim") use_sim = false;
      else if (arg == "--sim-vectors") {
        std::string v = next();
        int n = std::stoi(v, &used);
        if (used != v.size() || n < 1 || n > 1'000'000) {
          usage("--sim-vectors must be an integer in 1..1000000");
        }
        sim_vectors = n;
      } else if (arg == "--sim-seed") {
        std::string v = next();
        unsigned long long s = std::stoull(v, &used);
        if (used != v.size()) usage("--sim-seed must be an integer");
        sim_seed = static_cast<std::uint64_t>(s);
      } else if (arg == "--timeout") {
        std::string v = next();
        timeout = std::stod(v, &used);
        if (used != v.size() || !(*timeout > 0.0)) {
          usage("--timeout must be a positive number of seconds");
        }
      } else if (arg == "--json") json_path = next();
      else if (arg == "--cache-file") cache_path = next();
      else if (arg == "--cache-server") cache_server = next();
      else if (arg == "--cache-pool") {
        std::string v = next();
        int n = std::stoi(v, &used);
        if (used != v.size() || n < 1 || n > 64) {
          usage("--cache-pool must be an integer in 1..64");
        }
        cache_pool = n;
      } else if (arg == "--tenant") tenant = next();
      else if (arg == "--require-cache-hits") require_hits = true;
      else if (arg == "--max-retries") {
        std::string v = next();
        int n = std::stoi(v, &used);
        if (used != v.size() || n < 0 || n > 100) {
          usage("--max-retries must be an integer in 0..100");
        }
        max_retries = n;
      } else if (arg == "--deadline-ms") {
        std::string v = next();
        deadline_ms = std::stod(v, &used);
        if (used != v.size() || !(*deadline_ms > 0.0)) {
          usage("--deadline-ms must be a positive number of milliseconds");
        }
      } else if (arg == "--queue-depth") {
        std::string v = next();
        long n = std::stol(v, &used);
        if (used != v.size() || n < 1 || n > 1'000'000) {
          usage("--queue-depth must be an integer in 1..1000000");
        }
        queue_depth = static_cast<std::size_t>(n);
      } else if (arg == "--faults") fault_spec = next();
      else usage(("unknown option " + arg).c_str());
    } catch (const std::logic_error&) {
      // std::stoi / std::stod on malformed numbers.
      usage(("bad numeric value for " + arg).c_str());
    }
  }
  if (!manifest_path && !sweep_spec) usage("need --manifest or --sweep");
  if (manifest_path && sweep_spec) {
    usage("--manifest and --sweep are mutually exclusive");
  }

  std::vector<service::JobSpec> specs;
  try {
    if (manifest_path) {
      std::ifstream in(*manifest_path);
      if (!in) usage(("cannot open " + *manifest_path).c_str());
      specs = service::parse_manifest(in);
    } else {
      specs = service::make_sweep(service::parse_sweep_spec(*sweep_spec));
    }
  } catch (const service::ServiceError& e) {
    std::fprintf(stderr, "eda_service: %s\n", e.what());
    return 2;
  }
  if (specs.empty()) usage("no jobs in the manifest/sweep");
  if (timeout) {
    for (service::JobSpec& spec : specs) spec.timeout_sec = *timeout;
  }
  if (deadline_ms) {
    for (service::JobSpec& spec : specs) spec.deadline_ms = *deadline_ms;
  }

  // Fault injection: EDA_FAULTS first, --faults overriding — both must be
  // armed before any job can run.
  try {
    service::FaultInjector::instance().configure_from_env();
    if (fault_spec) {
      service::FaultInjector::instance().configure(*fault_spec);
    }
  } catch (const service::FaultSpecError& e) {
    usage(e.what());
  }

  service::ServiceOptions opts;
  // --serial keeps the pool minimal; run_one never schedules on it.
  opts.jobs = serial ? 1 : jobs;
  opts.cache.share = share_cache;
  opts.incremental = incremental;
  opts.sim.enabled = use_sim;
  opts.sim.vectors = sim_vectors;
  opts.retry.max_retries = max_retries;
  if (sim_seed) opts.sim.seed = *sim_seed;
  if (cache_server) opts.cache.server = *cache_server;
  opts.cache.remote_pool = cache_pool;
  if (tenant) {
    opts.cache.tenant = *tenant;
    for (service::JobSpec& spec : specs) {
      if (spec.tenant.empty()) spec.tenant = *tenant;
    }
  }
  unsigned threads =
      serial ? 1 : (jobs == 0 ? kernel::default_thread_count() : jobs);
  std::printf(
      "eda_service: %zu job(s), %u stream(s), shared cache %s%s, sim "
      "pre-filter %s (%d vectors, seed %llu)\n\n",
      specs.size(), threads, share_cache ? "on" : "off",
      incremental ? ", incremental cones" : "",
      use_sim ? "on" : "off", sim_vectors,
      static_cast<unsigned long long>(opts.sim.seed));
  if (service::FaultInjector::instance().enabled()) {
    std::printf("faults: armed (seed %llu, rate %.2f)\n\n",
                static_cast<unsigned long long>(
                    service::FaultInjector::instance().seed()),
                service::FaultInjector::instance().rate());
  }

  service::VerifyService svc(opts);
  if (cache_server) {
    service::ServiceStats st0 = svc.stats();
    if (st0.remote_failures > 0) {
      std::printf(
          "cache: daemon at %s unreachable — degraded to the in-process "
          "fallback (will re-probe with backoff)\n\n",
          cache_server->c_str());
    } else {
      std::printf("cache: connected to eda_cached at %s (tenant %s)\n\n",
                  cache_server->c_str(), opts.cache.tenant.c_str());
    }
  }
  if (cache_path) {
    // Warm start.  load_cache never throws: a bad file is a diagnosed
    // cold start, so a corrupted cache can never take the service down.
    service::CacheLoadResult lr = svc.load_cache(*cache_path);
    std::printf("cache: %s (%s)\n\n", lr.note.c_str(),
                cache_path->c_str());
    if (!share_cache) {
      std::printf(
          "cache: note: --no-shared-cache jobs never consult the loaded "
          "entries\n\n");
    }
  }
  std::vector<service::JobResult> results;
  if (serial) {
    for (const service::JobSpec& spec : specs) {
      results.push_back(svc.run_one(spec));
    }
  } else {
    // Jobs enter through the admission front: bounded queue,
    // priority/deadline scheduling, structured RETRY_LATER backpressure.
    // By default the queue is sized to the whole manifest; --queue-depth
    // shrinks it to exercise load shedding.
    service::AdmissionOptions aopts;
    aopts.max_depth =
        queue_depth ? *queue_depth
                    : std::max<std::size_t>(specs.size(), opts.queue.depth);
    aopts.streams = threads;
    aopts.tenant_weights = opts.queue.tenant_weights;
    service::AdmissionQueue queue(svc, aopts);
    std::vector<bool> accepted(specs.size(), false);
    std::vector<service::JobResult> shed(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      service::Admission ad = queue.try_submit(specs[i]);
      accepted[i] = ad.accepted;
      if (!ad.accepted) {
        service::JobResult r;
        r.circuit = specs[i].circuit;
        r.method = specs[i].method;
        r.tenant = specs[i].tenant;
        r.name = specs[i].name.empty()
                     ? specs[i].circuit + "/" +
                           service::method_name(specs[i].method)
                     : specs[i].name;
        r.ok = true;  // the service worked; it shed load as designed
        r.verdict = service::VerdictClass::RetryLater;
        r.error = ad.reason;
        svc.record_skipped(r);
        shed[i] = std::move(r);
      }
    }
    std::vector<service::JobResult> ran = queue.drain();
    std::size_t next = 0;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      results.push_back(accepted[i] ? std::move(ran[next++])
                                    : std::move(shed[i]));
    }
  }

  std::printf("%-28s %-6s %-5s %5s %7s %9s %9s %s\n", "name", "method",
              "stat", "ff", "gates", "synth_s", "verify_s", "cache");
  for (const service::JobResult& r : results) {
    std::string cache;
    if (r.theorem_cache_hit) cache += "thm ";
    if (r.result_cache_hit) cache += "res";
    if (r.cones > 0) {
      cache += " cones " + std::to_string(r.cone_hits) + "/" +
               std::to_string(r.cones) + " hit";
    }
    if (r.sim_refuted > 0) {
      cache += " sim-refuted " + std::to_string(r.sim_refuted) + " (" +
               std::to_string(r.sim_vectors) + " vec)";
    }
    if (r.attempts > 1) {
      cache += " attempts " + std::to_string(r.attempts) + " (backoff " +
               std::to_string(static_cast<long long>(r.backoff_ms)) +
               " ms)";
    }
    std::printf("%-28s %-6s %-5s %5d %7d %9.3f %9.3f %s\n", r.name.c_str(),
                service::method_name(r.method), status_of(r), r.ff, r.gates,
                r.synth_sec, r.verify_sec, cache.c_str());
    if (!r.counterexample.empty()) {
      std::printf("    ^ differs at output '%s'\n", r.counterexample.c_str());
    }
    if (!r.error.empty()) std::printf("    ^ %s\n", r.error.c_str());
  }

  service::ServiceStats st = svc.stats();
  std::printf(
      "\njobs %zu (failed %zu)  wall %.3f s  cpu %.3f s  throughput "
      "%.2f jobs/s\n",
      st.jobs, st.failed, st.wall_sec, st.cpu_sec,
      st.wall_sec > 0 ? static_cast<double>(st.jobs) / st.wall_sec : 0.0);
  std::printf("theorem cache: %llu hits / %llu misses (hit rate %.2f)\n",
              static_cast<unsigned long long>(st.theorems.hits),
              static_cast<unsigned long long>(st.theorems.misses),
              st.theorems.hit_rate());
  std::printf("result  cache: %llu hits / %llu misses (hit rate %.2f)\n",
              static_cast<unsigned long long>(st.results.hits),
              static_cast<unsigned long long>(st.results.misses),
              st.results.hit_rate());
  if (st.backend == "remote") {
    std::printf(
        "remote  cache: %llu round trip(s), %llu transport failure(s), "
        "%llu op(s) served locally while degraded\n",
        static_cast<unsigned long long>(st.remote_round_trips),
        static_cast<unsigned long long>(st.remote_failures),
        static_cast<unsigned long long>(st.degraded_ops));
  }

  // Results JSON before the cache save: the verdicts of a successful run
  // must reach their consumer even when persisting the cache fails (disk
  // full is a next-run-is-cold problem, not a this-run-never-happened
  // one).
  if (json_path) {
    std::ofstream out(*json_path);
    if (!out) {
      std::fprintf(stderr, "eda_service: cannot write %s\n",
                   json_path->c_str());
      return 1;
    }
    out << service::results_to_json(results, st, threads);
    std::printf("wrote %s\n", json_path->c_str());
  }

  bool save_failed = false;
  if (cache_path) {
    // Save on drain: every theorem/verdict proved in this run (plus what
    // was loaded) becomes the next run's warm start.
    try {
      svc.save_cache(*cache_path);
      std::printf("cache: saved %zu theorem(s), %zu verdict(s) to %s\n",
                  st.theorems.entries, st.results.entries,
                  cache_path->c_str());
    } catch (const service::CacheFileError& e) {
      std::fprintf(stderr, "eda_service: %s\n", e.what());
      save_failed = true;
    }
  }

  // Exit on classified verdicts, not just crashed jobs: a TIMEOUT or a
  // DEADLINE_EXPIRED is an unanswered obligation, and CI must see it.  A
  // completed NONEQUIV is an *answer* (exit 0 — the caller reads the
  // verdict, not the exit code, to learn which way it went).
  bool any_failed = save_failed;
  for (const service::JobResult& r : results) {
    if (!r.ok || service::verdict_is_failure(r.verdict)) any_failed = true;
  }
  if (require_hits && st.theorems.hits + st.results.hits == 0) {
    std::fprintf(stderr,
                 "eda_service: --require-cache-hits: no obligation was "
                 "served from the shared cache\n");
    return 1;
  }
  return any_failed ? 1 : 0;
}
