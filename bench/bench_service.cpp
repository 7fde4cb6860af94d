// Throughput benchmark for the multi-circuit verification service.
//
// Workload: a table1/table2-style parameter sweep (widths x methods, with
// `copies` duplicate submissions per cell — the production traffic shape
// where many clients resubmit the same netlists).  Two configurations run
// over the identical job list:
//
//   serial   one job at a time, no cross-job cache — the PR 3 world, where
//            each table row proves its own obligations;
//   batched  the VerifyService: all jobs in flight on the pool, one shared
//            theorem/verdict cache keyed on alpha-hashed goal terms;
//   warm     the batched service again, but warm-started from the cache
//            file the cold run saved — the service-restart scenario, where
//            every theorem and completed verdict is already present and
//            the run measures pure cache-replay throughput.
//
// The headline metrics are jobs/second for all three configurations and
// the shared-cache hit rates that explain the differences: on a
// single-core container the entire batched win is cache amortisation, on
// multi-core runners pool parallelism multiplies it, and the warm run
// shows what a restart costs once the cache persists.  Results go to
// BENCH_service.json (CI uploads the artifact and gates its
// service_seconds and service_metrics sections against
// bench/baselines/BENCH_service.baseline.json; --check asserts batched >=
// serial, and warm at least kWarmSpeedup times faster than batched, for
// the acceptance gate).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "io/blif.h"
#include "kernel/parallel.h"
#include "service/cache_server.h"
#include "service/sweep.h"
#include "service/verify_service.h"
#include "testlib/gen.h"
#include "theories/retiming_thm.h"

namespace {

using eda::bench::Clock;
using eda::bench::seconds_since;
using eda::bench::write_file;

/// --check's bar for the warm start: its throughput at least this many
/// times the cold batched run's.  The warm run replays the saved cache in
/// under a millisecond, too short for a gate on its seconds to see it
/// slow down; its speedup over the same run's batched leg read 16.1-80.0
/// over 37 runs on a 4-vCPU container, and the bar sits at half the
/// lowest.
constexpr double kWarmSpeedup = 8.0;

/// Nearest-rank percentile of per-job latencies (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::vector<double> latencies(
    const std::vector<eda::service::JobResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const eda::service::JobResult& r : results) {
    out.push_back(r.total_sec);
  }
  return out;
}

/// (jobs, share) service options — the old flat positional init, regrouped.
eda::service::ServiceOptions service_opts(unsigned jobs, bool share) {
  eda::service::ServiceOptions opts;
  opts.jobs = jobs;
  opts.cache.share = share;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  bool quick = false, check = false;
  unsigned jobs = 0;
  eda::bench::Args("bench_service")
      .flag("--quick", quick)
      .flag("--check", check)
      .number("--jobs", "N", jobs, 1u, 1024u)
      .text("--out", "FILE", out_path)
      .parse(argc, argv);

  eda::service::SweepGrid grid;
  grid.widths = quick ? std::vector<int>{4, 6} : std::vector<int>{4, 6, 8};
  grid.depths = {1};
  grid.methods = {eda::service::Method::Hash, eda::service::Method::Match,
                  eda::service::Method::Eijk};
  grid.copies = quick ? 2 : 3;
  grid.timeout_sec = 10.0;
  std::vector<eda::service::JobSpec> specs = eda::service::make_sweep(grid);

  // One-time costs out of the timed region: the universal theorem and the
  // warm interner/memo state every configuration then sees identically.
  eda::thy::retiming_thm();
  {
    eda::service::VerifyService warm(service_opts(1, false));
    for (const eda::service::JobSpec& spec : specs) {
      eda::service::JobResult r = warm.run_one(spec);
      if (!r.ok) {
        std::fprintf(stderr, "bench_service: warm-up job %s failed: %s\n",
                     r.name.c_str(), r.error.c_str());
        return 1;
      }
    }
  }

  std::printf("bench_service: %zu jobs (widths x methods x %d copies)\n",
              specs.size(), grid.copies);

  // Serial loop, no shared cache.
  double serial_sec = 0.0;
  std::vector<double> serial_lat;
  {
    eda::service::VerifyService svc(service_opts(1, false));
    auto t0 = Clock::now();
    for (const eda::service::JobSpec& spec : specs) {
      serial_lat.push_back(svc.run_one(spec).total_sec);
    }
    serial_sec = seconds_since(t0);
  }

  // Batched service, shared cache (cold: nothing persisted yet).  Its
  // caches are saved for the warm-start leg below.
  std::string cache_path = out_path + ".cache.tmp";
  double batched_sec = 0.0;
  std::vector<double> batched_lat;
  eda::service::ServiceStats batched_stats;
  unsigned threads = jobs == 0 ? eda::kernel::default_thread_count() : jobs;
  {
    eda::service::VerifyService svc(service_opts(jobs, true));
    auto t0 = Clock::now();
    batched_lat = latencies(svc.run_batch(specs));
    batched_sec = seconds_since(t0);
    batched_stats = svc.stats();
    svc.save_cache(cache_path);
  }

  // Warm-started service: a fresh instance (empty caches, as after a
  // restart) loads the persisted file and replays the identical workload.
  // Load time is charged to the run — it is part of what a restart costs.
  double warm_sec = 0.0;
  std::vector<double> warm_lat;
  eda::service::ServiceStats warm_stats;
  {
    eda::service::VerifyService svc(service_opts(jobs, true));
    auto t0 = Clock::now();
    eda::service::CacheLoadResult lr = svc.load_cache(cache_path);
    if (!lr.loaded) {
      std::fprintf(stderr, "bench_service: warm-start load failed: %s\n",
                   lr.note.c_str());
      std::remove(cache_path.c_str());
      return 1;
    }
    warm_lat = latencies(svc.run_batch(specs));
    warm_sec = seconds_since(t0);
    warm_stats = svc.stats();
  }
  std::remove(cache_path.c_str());

  // Edit-replay leg: the incremental-verification scenario the cache
  // percentages above can't see.  An N-cone design pair whose cones ALL
  // need a real engine run (opaque-equivalent edits defeat the miter
  // folding) is checked cold; then ONE cone of the B side is edited and
  // the pair replays against the cold run's persisted cache.  The replay
  // should re-prove exactly the edited cone and serve the other N-1 from
  // the verdict cache — re-proved-cone count, hit rate and latency vs the
  // cold check are the metrics.
  const int kEditCones = 16;
  double edit_cold_sec = 0.0, edit_replay_sec = 0.0;
  std::size_t edit_cones = 0, edit_reproved = 0, edit_hits = 0;
  bool edit_ok = false;
  {
    using eda::testlib::ConeEdit;
    eda::circuit::GateNetlist net_a = eda::testlib::random_netlist_multi(
        /*seed=*/20260808, /*inputs=*/8, /*gates=*/60 * kEditCones,
        /*ffs=*/10, kEditCones);
    eda::circuit::GateNetlist net_b = net_a;
    for (int i = 0; i < kEditCones; ++i) {
      net_b = eda::testlib::mutate_cone(net_b, static_cast<std::size_t>(i),
                                        ConeEdit::EquivalentOpaque);
    }
    eda::circuit::GateNetlist net_edit =
        eda::testlib::mutate_cone(net_b, 0, ConeEdit::Equivalent);
    const std::string a_path = out_path + ".edit_a.blif";
    const std::string b_path = out_path + ".edit_b.blif";
    const std::string e_path = out_path + ".edit_e.blif";
    const std::string edit_cache = out_path + ".edit.cache.tmp";
    if (!write_file(a_path, eda::io::write_blif(net_a, "edit_a")) ||
        !write_file(b_path, eda::io::write_blif(net_b, "edit_b")) ||
        !write_file(e_path, eda::io::write_blif(net_edit, "edit_e"))) {
      std::fprintf(stderr, "bench_service: cannot write edit-leg BLIFs\n");
      return 1;
    }
    auto blif_job = [](const std::string& a, const std::string& b) {
      eda::service::JobSpec spec;
      spec.circuit = "blif:" + a + "," + b;
      spec.method = eda::service::Method::Eijk;
      spec.timeout_sec = 60.0;
      return spec;
    };
    eda::service::ServiceOptions inc_opts;
    inc_opts.jobs = jobs;
    inc_opts.incremental = true;
    eda::service::JobResult cold_r, replay_r;
    {
      eda::service::VerifyService svc(inc_opts);
      auto t0 = Clock::now();
      cold_r = svc.run_one(blif_job(a_path, b_path));
      edit_cold_sec = seconds_since(t0);
      svc.save_cache(edit_cache);
    }
    {
      eda::service::VerifyService svc(inc_opts);
      eda::service::CacheLoadResult lr = svc.load_cache(edit_cache);
      auto t0 = Clock::now();
      replay_r = lr.loaded ? svc.run_one(blif_job(a_path, e_path))
                           : eda::service::JobResult{};
      edit_replay_sec = seconds_since(t0);
    }
    std::remove(a_path.c_str());
    std::remove(b_path.c_str());
    std::remove(e_path.c_str());
    std::remove(edit_cache.c_str());
    edit_cones = replay_r.cones;
    edit_reproved = replay_r.cones_reproved;
    edit_hits = replay_r.cone_hits;
    edit_ok = cold_r.ok && cold_r.completed && cold_r.equivalent &&
              replay_r.ok && replay_r.completed && replay_r.equivalent;
    if (!edit_ok) {
      std::fprintf(stderr,
                   "bench_service: edit-replay leg failed (cold %s, replay "
                   "%s)\n",
                   cold_r.ok ? "ok" : cold_r.error.c_str(),
                   replay_r.ok ? "ok" : replay_r.error.c_str());
    }
  }
  // Remote leg: the fleet scenario — an incremental cone sweep against an
  // embedded eda_cached daemon, measuring REMOTE ROUND TRIPS per job.
  // Cold, the client issues one LookupBatch and one PublishBatch for the
  // whole decomposition (<= 2 exchanges); warm, one LookupBatch serves
  // every cone (exactly 1).  Both are absolute counts, independent of
  // machine speed.
  const int kRemoteCones = 12;
  std::uint64_t remote_cold_rts = 0, remote_warm_rts = 0;
  bool remote_ok = false;
  {
    using eda::testlib::ConeEdit;
    std::string sock = out_path + ".cached.sock";
    std::remove(sock.c_str());
    eda::service::CacheServerOptions sopts;
    sopts.listen = "unix:" + sock;
    sopts.shards = 4;
    eda::service::CacheServer daemon(sopts);
    daemon.start();

    eda::circuit::GateNetlist rnet_a = eda::testlib::random_netlist_multi(
        /*seed=*/20260809, /*inputs=*/8, /*gates=*/40 * kRemoteCones,
        /*ffs=*/10, kRemoteCones);
    eda::circuit::GateNetlist rnet_b = rnet_a;
    for (int i = 0; i < kRemoteCones; ++i) {
      rnet_b = eda::testlib::mutate_cone(rnet_b, static_cast<std::size_t>(i),
                                         ConeEdit::EquivalentOpaque);
    }
    const std::string ra_path = out_path + ".remote_a.blif";
    const std::string rb_path = out_path + ".remote_b.blif";
    if (!write_file(ra_path, eda::io::write_blif(rnet_a, "remote_a")) ||
        !write_file(rb_path, eda::io::write_blif(rnet_b, "remote_b"))) {
      std::fprintf(stderr, "bench_service: cannot write remote-leg BLIFs\n");
      return 1;
    }
    eda::service::JobSpec rjob;
    rjob.circuit = "blif:" + ra_path + "," + rb_path;
    rjob.method = eda::service::Method::Eijk;
    rjob.timeout_sec = 60.0;
    eda::service::ServiceOptions ropts;
    ropts.jobs = jobs;
    ropts.incremental = true;
    ropts.cache.server = "unix:" + sock;
    ropts.cache.remote_pool = 4;
    auto run_remote = [&](std::uint64_t* rts) {
      eda::service::VerifyService svc(ropts);
      std::uint64_t rt0 = svc.stats().remote_round_trips;
      eda::service::JobResult r = svc.run_one(rjob);
      eda::service::ServiceStats st = svc.stats();
      *rts = st.remote_round_trips - rt0;
      return r.ok && r.completed && r.equivalent &&
             st.remote_failures == 0 &&
             r.cones == static_cast<std::size_t>(kRemoteCones);
    };
    // Cold fills the daemon; the warm replay must serve every cone from
    // it with identical verdicts.
    bool cold_ok = run_remote(&remote_cold_rts);
    bool warm_ok = run_remote(&remote_warm_rts);
    remote_ok = cold_ok && warm_ok;
    if (!remote_ok) {
      std::fprintf(stderr,
                   "bench_service: remote leg failed (cold %d, warm %d)\n",
                   cold_ok, warm_ok);
    }
    std::remove(ra_path.c_str());
    std::remove(rb_path.c_str());
    daemon.stop();
    std::remove(sock.c_str());
  }
  // Exactly one cone was edited by construction, so the other cones - 1
  // are unchanged; a rate below 1.0 means a hash-stability bug forced an
  // unchanged cone back to the engine.
  double edit_unchanged_hit_rate =
      edit_cones > 1 ? static_cast<double>(edit_hits) /
                           static_cast<double>(edit_cones - 1)
                     : 0.0;
  double edit_speedup =
      edit_replay_sec > 0 ? edit_cold_sec / edit_replay_sec : 0.0;

  double n = static_cast<double>(specs.size());
  double serial_tp = serial_sec > 0 ? n / serial_sec : 0.0;
  double batched_tp = batched_sec > 0 ? n / batched_sec : 0.0;
  double warm_tp = warm_sec > 0 ? n / warm_sec : 0.0;
  const double throughput_ratio = serial_tp > 0 ? batched_tp / serial_tp : 0;
  const double warm_vs_cold_ratio = warm_sec > 0 ? batched_sec / warm_sec : 0;
  std::printf("  serial   %.3f s  (%.2f jobs/s)\n", serial_sec, serial_tp);
  std::printf(
      "  batched  %.3f s  (%.2f jobs/s, %u stream(s), theorem hit rate "
      "%.2f, result hit rate %.2f)\n",
      batched_sec, batched_tp, threads, batched_stats.theorems.hit_rate(),
      batched_stats.results.hit_rate());
  std::printf(
      "  warm     %.3f s  (%.2f jobs/s, theorem hit rate %.2f, result hit "
      "rate %.2f)\n",
      warm_sec, warm_tp, warm_stats.theorems.hit_rate(),
      warm_stats.results.hit_rate());
  std::printf("  throughput ratio %.2fx batched, %.2fx warm\n",
              throughput_ratio, serial_tp > 0 ? warm_tp / serial_tp : 0.0);
  std::printf(
      "  latency p50/p95: serial %.4f/%.4f s, batched %.4f/%.4f s, warm "
      "%.4f/%.4f s\n",
      percentile(serial_lat, 50), percentile(serial_lat, 95),
      percentile(batched_lat, 50), percentile(batched_lat, 95),
      percentile(warm_lat, 50), percentile(warm_lat, 95));
  std::printf(
      "  edit-replay: %zu cones, %zu re-proved, unchanged hit rate %.2f, "
      "cold %.3f s -> replay %.3f s (%.1fx)\n",
      edit_cones, edit_reproved, edit_unchanged_hit_rate, edit_cold_sec,
      edit_replay_sec, edit_speedup);
  std::printf("  remote: %d cones, round trips cold %llu / warm %llu\n",
              kRemoteCones, static_cast<unsigned long long>(remote_cold_rts),
              static_cast<unsigned long long>(remote_warm_rts));

  eda::bench::Json json("bench_service");
  json.field("jobs", specs.size())
      .field("copies", grid.copies)
      .field("threads", threads)
      .field("hardware_threads", eda::kernel::default_thread_count())
      .field("serial_seconds", serial_sec)
      .field("batched_seconds", batched_sec)
      .field("serial_jobs_per_sec", serial_tp)
      .field("batched_jobs_per_sec", batched_tp)
      .field("throughput_ratio", throughput_ratio)
      .field("theorem_hit_rate", batched_stats.theorems.hit_rate())
      .field("result_hit_rate", batched_stats.results.hit_rate())
      .field("warm_seconds", warm_sec)
      .field("warm_jobs_per_sec", warm_tp)
      .field("warm_vs_cold_ratio", warm_vs_cold_ratio)
      .field("warm_theorem_hit_rate", warm_stats.theorems.hit_rate())
      .field("warm_theorem_misses", warm_stats.theorems.misses)
      .field("warm_result_hit_rate", warm_stats.results.hit_rate())
      .field("serial_p50_sec", percentile(serial_lat, 50))
      .field("serial_p95_sec", percentile(serial_lat, 95))
      .field("batched_p50_sec", percentile(batched_lat, 50))
      .field("batched_p95_sec", percentile(batched_lat, 95))
      .field("warm_p50_sec", percentile(warm_lat, 50))
      .field("warm_p95_sec", percentile(warm_lat, 95))
      .field("edit_cones", edit_cones)
      .field("edit_reproved_cones", edit_reproved)
      .field("edit_unchanged_hit_rate", edit_unchanged_hit_rate)
      .field("edit_cold_seconds", edit_cold_sec)
      .field("edit_replay_seconds", edit_replay_sec)
      .field("edit_speedup", edit_speedup)
      .field("remote_cold_round_trips", remote_cold_rts)
      .field("remote_warm_round_trips", remote_warm_rts)
      // Ratio metrics for the bench_compare.py regression gate
      // (--section service_metrics --higher-is-better): machine-speed
      // independent, so one committed baseline holds across runners.
      .section("service_metrics", {{"throughput_ratio", throughput_ratio},
                                   {"warm_vs_cold_ratio", warm_vs_cold_ratio},
                                   {"edit_speedup", edit_speedup}})
      // Absolute wall times for the lower-is-better gate (--section
      // service_seconds).  A ratio alone moves the wrong way when its
      // denominator regresses, and reads as a regression when its
      // denominator improves: a faster cold run lowers warm_vs_cold_ratio.
      .section("service_seconds", {{"serial", serial_sec},
                                   {"batched", batched_sec},
                                   {"warm", warm_sec},
                                   {"edit_cold", edit_cold_sec},
                                   {"edit_replay", edit_replay_sec}});
  if (!json.write(out_path)) return 1;

  if (check && batched_tp < serial_tp) {
    std::fprintf(stderr,
                 "bench_service: --check: batched throughput %.2f < serial "
                 "%.2f jobs/s\n",
                 batched_tp, serial_tp);
    return 1;
  }
  if (check && warm_tp < kWarmSpeedup * batched_tp) {
    std::fprintf(stderr,
                 "bench_service: --check: warm-start throughput %.2f < "
                 "%.0fx batched %.2f jobs/s\n",
                 warm_tp, kWarmSpeedup, batched_tp);
    return 1;
  }
  if (check) {
    // The incremental acceptance gate: exactly the edited cone re-proved,
    // every unchanged cone served from the cache, and the replay at least
    // 10x faster than the cold check.
    if (!edit_ok || edit_reproved != 1 || edit_unchanged_hit_rate < 1.0) {
      std::fprintf(stderr,
                   "bench_service: --check: edit-replay re-proved %zu of "
                   "%zu cones (unchanged hit rate %.2f), expected exactly "
                   "1 with rate 1.0\n",
                   edit_reproved, edit_cones, edit_unchanged_hit_rate);
      return 1;
    }
    if (edit_speedup < 10.0) {
      std::fprintf(stderr,
                   "bench_service: --check: edit-replay speedup %.1fx < "
                   "10x (cold %.3f s, replay %.3f s)\n",
                   edit_speedup, edit_cold_sec, edit_replay_sec);
      return 1;
    }
    // The pipelined-I/O acceptance gate: an incremental sweep is one
    // lookup frame plus, cold, one publish frame — exactly 1 remote
    // exchange warm and at most 2 cold, whatever the cone count.
    if (!remote_ok || remote_cold_rts > 2 || remote_warm_rts != 1) {
      std::fprintf(stderr,
                   "bench_service: --check: remote leg used %llu cold / "
                   "%llu warm round trips for one job, expected <= 2 cold "
                   "and exactly 1 warm\n",
                   static_cast<unsigned long long>(remote_cold_rts),
                   static_cast<unsigned long long>(remote_warm_rts));
      return 1;
    }
  }
  return 0;
}
