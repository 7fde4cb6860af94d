// Benchmark for the bit-parallel simulation pre-filter (sim/bitsim.h).
//
// Three legs, one seeded corpus (base seed from testlib stimulus_seed(),
// so EDA_SEED reproduces a run exactly):
//
//   raw        BitSimulator step throughput on one medium netlist —
//              input vectors per second across the 64 lanes;
//   refute     sim::refute over a mixed corpus of design pairs with known
//              ground truth: refutations/second and the pre-filter hit
//              rate (fraction of the NONEQUIV pairs the simulation settles
//              before any engine would run);
//   service    the acceptance experiment: the same corpus pushed through
//              VerifyService twice, with and without the pre-filter, on a
//              majority-NONEQUIV mix — the shape where the pre-filter pays,
//              since every refuted pair skips a full BDD traversal.
//
// Results go to BENCH_sim.json.  Two sections feed the bench_compare.py
// gates: `sim_seconds`, the service leg's wall time on each side (lower
// is better), and `sim_metrics`, the ratios (higher is better).  --check
// asserts the acceptance bar: service throughput with the pre-filter at
// least 5x the --no-sim run on the >=50%-nonequivalent corpus, and every
// sim-refuted job carrying a concrete counterexample.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "io/blif.h"
#include "service/verify_service.h"
#include "sim/bitsim.h"
#include "testlib/gen.h"

namespace {

using eda::bench::Clock;
using eda::bench::seconds_since;
using eda::bench::write_file;

struct CorpusPair {
  std::string a_path, b_path;
  bool nonequiv = false;
  eda::circuit::GateNetlist a, b;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim.json";
  bool quick = false, check = false;
  eda::bench::Args("bench_sim")
      .flag("--quick", quick)
      .flag("--check", check)
      .text("--out", "FILE", out_path)
      .parse(argc, argv);

  const std::uint64_t seed = eda::testlib::stimulus_seed();
  using eda::testlib::ConeEdit;

  // --- Leg 1: raw step throughput -----------------------------------------
  const int kRawWords = quick ? 2'000 : 20'000;
  double raw_vec_per_sec = 0.0;
  {
    eda::circuit::GateNetlist net = eda::testlib::random_netlist(
        seed, /*inputs=*/16, /*gates=*/600, /*ffs=*/12);
    eda::sim::BitSimulator sim(net);
    std::vector<std::uint64_t> stim(net.inputs().size());
    std::mt19937_64 rng(seed);
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    for (int w = 0; w < kRawWords; ++w) {
      for (std::uint64_t& word : stim) word = rng();
      sim.step(stim);
      sink ^= sim.output(0).val;  // defeat dead-code elimination
    }
    double sec = seconds_since(t0);
    raw_vec_per_sec = sec > 0 ? kRawWords * 64.0 / sec : 0.0;
    std::printf(
        "bench_sim: raw %0.2f Mvec/s (%d words, 600-gate netlist, "
        "sink %llx)\n",
        raw_vec_per_sec / 1e6, kRawWords,
        static_cast<unsigned long long>(sink));
  }

  // --- Seeded mixed corpus ------------------------------------------------
  // Majority-NONEQUIV (satisfying the >=50% acceptance mix) because that
  // is the traffic the pre-filter is for; the opaque-EQUIV pair keeps the
  // runs honest — it must pass through to the engine in BOTH
  // configurations.  Each NONEQUIV pair mutates a *sim-observable* output,
  // probed with a one-word refute: a Different edit on an output that the
  // X-pessimistic init keeps permanently unknown (e.g. an XOR flop loop)
  // is invisible to ANY simulation sound against arbitrary initial state,
  // and such a pair measures the engine, not the pre-filter.  The hit-rate
  // metric is then a regression guard on the lane semantics: anything
  // below 1.0 means the simulator stopped seeing a bug it used to see.
  const int kPairs = quick ? 8 : 16;
  std::vector<CorpusPair> corpus;
  for (int i = 0; i < kPairs; ++i) {
    CorpusPair p;
    p.nonequiv = i != 0;
    std::uint64_t s = seed + static_cast<std::uint64_t>(i) + 1;
    for (int attempt = 0;; ++attempt, s += 1000003) {
      p.a = eda::testlib::random_netlist_multi(
          s, /*inputs=*/6, /*gates=*/300, /*ffs=*/10, /*outputs=*/4);
      if (!p.nonequiv) {
        p.b = eda::testlib::mutate_cone(p.a, 0, ConeEdit::EquivalentOpaque);
        break;
      }
      bool found = false;
      for (std::size_t idx = 0; idx < 4 && !found; ++idx) {
        eda::circuit::GateNetlist cand =
            eda::testlib::mutate_cone(p.a, idx, ConeEdit::Different);
        eda::sim::SimOptions probe;
        probe.seed = seed;
        probe.vectors = 64;
        if (eda::sim::refute(p.a, cand, probe).refuted) {
          p.b = std::move(cand);
          found = true;
        }
      }
      if (found) break;
      if (attempt >= 32) {
        std::fprintf(stderr,
                     "bench_sim: no sim-observable output found for pair "
                     "%d after %d designs\n",
                     i, attempt + 1);
        return 1;
      }
    }
    corpus.push_back(std::move(p));
  }
  int nonequiv_pairs = 0;
  for (const CorpusPair& p : corpus) nonequiv_pairs += p.nonequiv ? 1 : 0;

  // --- Leg 2: refutation throughput + pre-filter hit rate -----------------
  int refuted = 0;
  std::uint64_t refute_vectors = 0;
  double refute_sec = 0.0;
  {
    eda::sim::SimOptions sopts;
    sopts.seed = seed;
    auto t0 = Clock::now();
    for (const CorpusPair& p : corpus) {
      eda::sim::RefuteResult r = eda::sim::refute(p.a, p.b, sopts);
      refute_vectors += r.vectors;
      if (r.refuted) ++refuted;
    }
    refute_sec = seconds_since(t0);
  }
  double refutations_per_sec =
      refute_sec > 0 ? refuted / refute_sec : 0.0;
  double prefilter_hit_rate =
      nonequiv_pairs > 0
          ? static_cast<double>(refuted) / nonequiv_pairs
          : 0.0;
  std::printf(
      "bench_sim: refute %d/%d nonequiv pairs caught (hit rate %.2f), "
      "%.0f refutations/s, %llu vectors\n",
      refuted, nonequiv_pairs, prefilter_hit_rate, refutations_per_sec,
      static_cast<unsigned long long>(refute_vectors));

  // --- Leg 3: service with vs without the pre-filter ----------------------
  std::vector<eda::service::JobSpec> specs;
  std::vector<std::string> tmp_files;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    CorpusPair& p = corpus[i];
    p.a_path = out_path + ".pair" + std::to_string(i) + "_a.blif";
    p.b_path = out_path + ".pair" + std::to_string(i) + "_b.blif";
    if (!write_file(p.a_path, eda::io::write_blif(p.a, "sim_a")) ||
        !write_file(p.b_path, eda::io::write_blif(p.b, "sim_b"))) {
      std::fprintf(stderr, "bench_sim: cannot write corpus BLIFs\n");
      return 1;
    }
    tmp_files.push_back(p.a_path);
    tmp_files.push_back(p.b_path);
    eda::service::JobSpec spec;
    spec.circuit = "blif:" + p.a_path + "," + p.b_path;
    spec.method = eda::service::Method::Eijk;
    spec.timeout_sec = 60.0;
    spec.name = "pair" + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  auto run_service = [&](bool use_sim, double& sec,
                         std::size_t& sim_refuted_jobs,
                         std::size_t& missing_cex, bool& all_ok) {
    eda::service::ServiceOptions sopts;
    sopts.cache.share = false;  // every pair proves itself, both configs
    sopts.sim.enabled = use_sim;
    sopts.sim.seed = seed;
    eda::service::VerifyService svc(sopts);
    auto t0 = Clock::now();
    std::vector<eda::service::JobResult> rs = svc.run_batch(specs);
    sec = seconds_since(t0);
    all_ok = true;
    sim_refuted_jobs = 0;
    missing_cex = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      bool expect_neq = corpus[i].nonequiv;
      if (!rs[i].ok || !rs[i].completed ||
          rs[i].equivalent == expect_neq) {
        all_ok = false;
        std::fprintf(stderr,
                     "bench_sim: job %s wrong verdict (use_sim=%d)\n",
                     rs[i].name.c_str(), use_sim ? 1 : 0);
      }
      if (rs[i].sim_refuted > 0) {
        ++sim_refuted_jobs;
        if (rs[i].counterexample.empty()) ++missing_cex;
      }
    }
  };
  double sim_sec = 0.0, nosim_sec = 0.0;
  std::size_t sim_refuted_jobs = 0, nosim_refuted_jobs = 0;
  std::size_t missing_cex = 0, nosim_missing = 0;
  bool sim_ok = false, nosim_ok = false;
  run_service(false, nosim_sec, nosim_refuted_jobs, nosim_missing,
              nosim_ok);
  run_service(true, sim_sec, sim_refuted_jobs, missing_cex, sim_ok);
  for (const std::string& f : tmp_files) std::remove(f.c_str());
  double prefilter_speedup = sim_sec > 0 ? nosim_sec / sim_sec : 0.0;
  std::printf(
      "bench_sim: service %.3f s with pre-filter (refuted %zu job(s)) vs "
      "%.3f s without -> %.1fx\n",
      sim_sec, sim_refuted_jobs, nosim_sec, prefilter_speedup);

  eda::bench::Json json("bench_sim");
  json.field("seed", seed)
      .field("raw_vectors_per_sec", raw_vec_per_sec)
      .field("corpus_pairs", kPairs)
      .field("corpus_nonequiv", nonequiv_pairs)
      .field("refutations_per_sec", refutations_per_sec)
      .field("refute_vectors", refute_vectors)
      .field("sim_refuted_jobs", sim_refuted_jobs)
      // The service leg's seconds, for the absolute gate (--section
      // sim_seconds).
      .section("sim_seconds", {{"sim", sim_sec}, {"nosim", nosim_sec}})
      // Ratios for the bench_compare.py gate (--section sim_metrics
      // --higher-is-better).
      .section("sim_metrics", {{"prefilter_speedup", prefilter_speedup},
                               {"prefilter_hit_rate", prefilter_hit_rate}});
  if (!json.write(out_path)) return 1;

  if (check) {
    if (!sim_ok || !nosim_ok) {
      std::fprintf(stderr,
                   "bench_sim: --check: verdict mismatch against ground "
                   "truth (see above)\n");
      return 1;
    }
    if (prefilter_speedup < 5.0) {
      std::fprintf(stderr,
                   "bench_sim: --check: pre-filter speedup %.1fx < 5x "
                   "(with %.3f s, without %.3f s)\n",
                   prefilter_speedup, sim_sec, nosim_sec);
      return 1;
    }
    if (prefilter_hit_rate < 1.0) {
      // Corpus construction probed each NONEQUIV pair with the refute
      // leg's own first stimulus word, so anything below 1.0 is a lane-
      // semantics regression, not corpus bad luck.
      std::fprintf(stderr,
                   "bench_sim: --check: pre-filter hit rate %.3f < 1.0 on "
                   "a sim-observable corpus\n",
                   prefilter_hit_rate);
      return 1;
    }
    if (sim_refuted_jobs == 0 || missing_cex > 0) {
      std::fprintf(stderr,
                   "bench_sim: --check: %zu sim-refuted job(s), %zu "
                   "without a concrete counterexample\n",
                   sim_refuted_jobs, missing_cex);
      return 1;
    }
  }
  return 0;
}
