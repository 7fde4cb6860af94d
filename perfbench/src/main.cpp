// perfbench: the closed-loop service benchmark and its traced replay.
//
//   perfbench prep   --workload W --seed S --dir D [--seconds T] [--sample]
//   perfbench setup  --workload W --dir D [--warm F] [--spawn-ns N]
//   perfbench run    --workload W --dir D [--warm F] [--spawn-ns N]
//                    --seconds T
//   perfbench replay --workload W --dir D [--record 0|1] [--trace-out F]
//
// `prep` writes the seeded inputs (and edit_replay's warm store, proved by
// the service itself); `setup` only sets up, for the set-up-time samples;
// `run` sets up, warms up, runs the timed closed loop and prints the
// end-to-end metrics; `replay` is the one-thread traced replay that gives
// the per-layer metrics (replay.cpp).  perfbench/run.py drives them.  The
// last stdout line of every mode is one JSON object.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Closed-loop clients: half the reference machine's 4 vCPUs, so queue wait
/// is zero by construction and the other two are left for what a job runs
/// beside its client thread (a fresh client's pool worker, the embedded
/// daemon's handler threads) and for neighbours on a shared host.  At 4
/// clients the machine was saturated: one busy-looping process beside the
/// run cut throughput by 20-27 % and raised p90 by 17-45 %, against 0-6 %
/// and 1-6 % at 2 clients.
constexpr unsigned kClients = 2;

struct Args {
  std::string mode;
  Workload workload = Workload::HashRetime;
  std::uint64_t seed = 1;
  std::string dir;
  std::string warm;
  std::string trace_out;
  double seconds = 10.0;
  bool sample = false;
  bool record = true;
  long long spawn_ns = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode (prep|setup|run|replay)");
  a.mode = argv[1];
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--sample") {
      a.sample = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after " + k);
    std::string v = argv[++i];
    try {
      if (k == "--workload") {
        auto w = parse_workload(v);
        if (!w) usage("unknown workload " + v);
        a.workload = *w;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--dir") {
        a.dir = v;
      } else if (k == "--warm") {
        a.warm = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--record") {
        a.record = v != "0";
      } else if (k == "--spawn-ns") {
        a.spawn_ns = std::stoll(v);
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.dir.empty()) usage("--dir is required");
  if (!(a.seconds > 0.0)) usage("bad --seconds");
  return a;
}

Clock::time_point g_main_entry;

/// Seconds from process start to now: from the launcher's CLOCK_MONOTONIC
/// stamp taken just before it spawned this process when given (so loading
/// and static initialisation count), else from main().
double since_process_start(const Args& a) {
  auto now = Clock::now();
  if (a.spawn_ns >= 0) {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  now.time_since_epoch())
                  .count();
    return static_cast<double>(ns - a.spawn_ns) * 1e-9;
  }
  return std::chrono::duration<double>(now - g_main_entry).count();
}

struct Sample {
  std::size_t job = 0;
  double latency_s = 0.0;
  Outcome outcome = Outcome::Failed;
  std::size_t cones = 0, cone_hits = 0, reproved = 0, sim_refuted = 0;
  int attempts = 0;
};

/// The closed loop: `threads` clients, each issuing the next job only when
/// its previous one has returned, until `seconds` have passed or the input
/// pool is drained.  In-flight jobs finish; the phase ends with the last.
struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool drained = false;
};

Phase closed_loop(Harness& h, const std::vector<JobInput>& jobs,
                  std::atomic<std::size_t>& cursor, double seconds,
                  unsigned threads) {
  Phase p;
  std::vector<std::vector<Sample>> per_thread(threads);
  std::atomic<bool> drained{false};
  double cpu0 = cpu_seconds();
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      while (Clock::now() < deadline) {
        std::size_t i = cursor++;
        if (i >= jobs.size()) {
          drained = true;
          return;
        }
        Sample s;
        s.job = i;
        auto js = Clock::now();
        eda::service::JobResult r = h.run(jobs[i]);
        s.latency_s = std::chrono::duration<double>(Clock::now() - js).count();
        s.outcome = judge(jobs[i], r);
        if (s.outcome != Outcome::Correct) {
          std::fprintf(stderr, "perfbench: job %zu %s/%s: %s %s%s\n", i,
                       jobs[i].circuit.c_str(), jobs[i].method.c_str(),
                       s.outcome == Outcome::Wrong ? "WRONG" : "failed",
                       eda::service::verdict_class_name(r.verdict),
                       r.error.empty() ? "" : (" " + r.error).c_str());
        }
        s.cones = r.cones;
        s.cone_hits = r.cone_hits;
        s.reproved = r.cones_reproved;
        s.sim_refuted = r.sim_refuted;
        s.attempts = r.attempts;
        per_thread[t].push_back(s);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  p.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  p.cpu_s = cpu_seconds() - cpu0;
  p.drained = drained;
  for (auto& v : per_thread) {
    p.samples.insert(p.samples.end(), v.begin(), v.end());
  }
  return p;
}

/// A `hash` job's answer is its theorem: a job that reported EQUIV without
/// the service holding its retiming theorem is a wrong answer.
void check_theorems(Harness& h, const std::vector<JobInput>& jobs,
                    std::vector<Sample>& samples) {
  for (Sample& s : samples) {
    const JobInput& in = jobs[s.job];
    if (in.method != "hash" || s.outcome != Outcome::Correct) continue;
    if (!has_retiming_theorem(*h.shared_service(), in.circuit)) {
      std::fprintf(stderr, "perfbench: job %zu %s: no retiming theorem\n",
                   s.job, in.circuit.c_str());
      s.outcome = Outcome::Wrong;
    }
  }
}

void print_shares(const char* what,
                  const std::map<std::string, std::uint64_t>& counts,
                  std::uint64_t n) {
  std::printf("  %s:", what);
  for (const auto& [k, c] : counts) {
    std::printf(" %s %s;", k.c_str(), Ratio{c, n}.str().c_str());
  }
  std::printf("\n");
}

int run_mode(const Args& a) {
  std::string warm = a.workload == Workload::EditReplay ? a.warm : "";
  Harness h(a.workload, a.dir, warm, kClients);
  double setup_s = since_process_start(a);
  std::vector<JobInput> jobs = load_jobs(a.dir + "/jobs.tsv");
  std::atomic<std::size_t> cursor{0};

  // Warm-up on the head of the input pool: the same closed loop, untimed.
  // Jobs are consumed, never repeated, so no timed obligation is derived
  // (or its verdict cached) before it is timed.
  double warm_s = std::min(2.0, 0.25 * a.seconds);
  Phase warmup = closed_loop(h, jobs, cursor, warm_s, kClients);
  Phase p = closed_loop(h, jobs, cursor, a.seconds, kClients);

  std::size_t wrong = 0, failed = 0;
  if (a.workload == Workload::HashRetime) {
    check_theorems(h, jobs, warmup.samples);
    check_theorems(h, jobs, p.samples);
  }
  for (const Sample& s : warmup.samples) {
    if (s.outcome == Outcome::Wrong) ++wrong;
  }
  std::vector<double> lat;
  Ratio fail, noneq, hits;
  std::map<std::string, std::uint64_t> families, engines;
  double cones = 0.0, reproved = 0.0, sim = 0.0;
  std::size_t retries = 0;
  for (const Sample& s : p.samples) {
    const JobInput& in = jobs[s.job];
    lat.push_back(s.latency_s * 1000.0);
    fail.add(s.outcome != Outcome::Correct);
    if (s.outcome == Outcome::Wrong) ++wrong;
    if (s.outcome == Outcome::Failed) ++failed;
    noneq.add(!in.expect_equiv);
    ++families[in.family.substr(0, in.family.find('/'))];
    ++engines[in.method];
    cones += static_cast<double>(s.cones);
    reproved += static_cast<double>(s.reproved);
    sim += static_cast<double>(s.sim_refuted);
    hits.num += s.cone_hits;
    hits.den += s.cones;
    retries += s.attempts > 1 ? static_cast<std::size_t>(s.attempts - 1) : 0;
  }
  const std::size_t n = p.samples.size();
  const double jobs_per_s = n == 0 ? 0.0 : static_cast<double>(n) / p.wall_s;
  const double p50 = nearest_rank(lat, 50.0), p90 = nearest_rank(lat, 90.0);
  const double cpu_ms =
      n == 0 ? 0.0 : 1000.0 * p.cpu_s / static_cast<double>(n);
  const double rss = peak_rss_mb();
  const double dn = n == 0 ? 1.0 : static_cast<double>(n);

  std::printf(
      "perfbench %s: %u closed-loop clients, %.2f s warm-up (%zu jobs)\n",
      workload_name(a.workload), kClients, warmup.wall_s,
      warmup.samples.size());
  std::printf("  setup_s         %.6f s\n", setup_s);
  std::printf("  jobs_per_s      %.3f jobs/s (%zu jobs in %.3f s%s)\n",
              jobs_per_s, n, p.wall_s, p.drained ? ", input pool drained" : "");
  std::printf("  latency_p50_ms  %.3f ms (n=%zu)\n", p50, n);
  std::printf("  latency_p90_ms  %.3f ms (n=%zu, %zu beyond%s)\n", p90, n,
              samples_beyond(n, 90.0),
              percentile_supported(n, 90.0) ? "" : ", FEWER THAN 10");
  std::printf("  fail_frac       %s, %zu wrong\n", fail.str().c_str(), wrong);
  std::printf("  cpu_ms_per_job  %.3f ms\n", cpu_ms);
  std::printf("  peak_rss_mb     %.1f MB\n", rss);
  std::printf("  traffic: NONEQUIV share %s; retries %zu\n",
              noneq.str().c_str(), retries);
  print_shares("jobs per family", families, n);
  print_shares("jobs per method", engines, n);
  if (hits.den > 0) {
    std::printf(
        "  cones per job %.2f, re-proved per job %.3f, sim-refuted per job "
        "%.3f, verdict hit fraction %s\n",
        cones / dn, reproved / dn, sim / dn, hits.str().c_str());
  }
  std::printf(
      "{\"setup_s\": %.9f, \"jobs_per_s\": %.6f, \"latency_p50_ms\": %.6f, "
      "\"latency_p90_ms\": %.6f, \"fail_frac\": %.6f, \"cpu_ms_per_job\": "
      "%.6f, \"peak_rss_mb\": %.4f, \"attempted\": %zu, \"failed\": %zu, "
      "\"wrong\": %zu, \"drained\": %s}\n",
      setup_s, jobs_per_s, p50, p90, fail.value(), cpu_ms, rss, n,
      failed + wrong, wrong, p.drained ? "true" : "false");
  std::fflush(stdout);
  return wrong == 0 && n > 0 ? 0 : 1;
}

int setup_mode(const Args& a) {
  std::string warm = a.workload == Workload::EditReplay ? a.warm : "";
  Harness h(a.workload, a.dir, warm, kClients);
  double setup_s = since_process_start(a);
  std::printf("{\"setup_s\": %.9f}\n", setup_s);
  std::fflush(stdout);
  return 0;
}

int prep_mode(const Args& a) {
  InputSize size;
  size.seconds = a.seconds;
  size.replay_sample = a.sample;
  prepare_inputs(a.workload, a.seed, a.dir, size);
  if (a.workload == Workload::EditReplay && !a.sample) {
    if (!build_warm_store(a.dir, a.dir + "/warm.bin")) return 1;
  }
  std::printf("{\"prepared\": \"%s\"}\n", workload_name(a.workload));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::g_main_entry = perfbench::Clock::now();
  perfbench::Args a = perfbench::parse_args(argc, argv);
  try {
    if (a.mode == "prep") return perfbench::prep_mode(a);
    if (a.mode == "setup") return perfbench::setup_mode(a);
    if (a.mode == "run") return perfbench::run_mode(a);
    if (a.mode == "replay") {
      return perfbench::replay_main(a.workload, a.dir, a.record, a.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", a.mode.c_str(), e.what());
    return 1;
  }
  perfbench::usage("unknown mode " + a.mode);
}
