// Absolute numbers for the BDD layer: the package's raw ingredients (ite
// throughput, the growth of the figure-2 machine's functions, quantifier
// cost), the cost of setting up a problem in a fresh manager against a
// reset one, and one thread's pass of the engines over fixed retimed pairs
// — the substrate of the model-checking blow-up the paper's tables
// document.
//
// Writes BENCH_bdd.json (--out FILE) with two sections for
// tools/bench_compare.py, both lower-is-better:
//   micro_ns_per_op  one warm-up call, then the best of 5 timed batches;
//   engine_ms        check_batch over five retimed pairs under eijk, eijk+
//                    and smv, one batch of one per cell as run_check sends
//                    it: each engine's cells summed and the pass's total,
//                    each the best of 20 passes after a warm-up pass that
//                    also checks every verdict (exit 1 on any that is not
//                    a completed EQUIV).
//
// The run also exits 1 when fig2:8's product setup in a reset manager is
// not faster than in a fresh one, both measured in this process: the
// baseline gate's threshold is wider than that difference.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "circuit/bitblast.h"
#include "harness.h"
#include "hash/retime_step.h"
#include "verify/parallel_verify.h"
#include "verify/symbolic.h"

namespace {

namespace b = eda::bdd;
namespace c = eda::circuit;
namespace v = eda::verify;
using eda::bench::Clock;
using eda::bench::Metrics;
using eda::bench::ns_per_op;
using eda::verify::Engine;

// Timed engine passes, each about 10 ms: with 5, a run in 10 read a total
// twice its engines' best sums, a host stall having landed in every pass.
constexpr int kEnginePasses = 20;
constexpr Engine kEngines[] = {Engine::Eijk, Engine::EijkPlus, Engine::Smv};
constexpr std::size_t kNumEngines = std::size(kEngines);

/// An (original, retimed) gate-level pair through the HASH step.
struct Pair {
  std::string name;
  c::GateNetlist a, b;
};

Pair retimed(std::string name, const c::Rtl& rtl, const eda::hash::Cut& cut) {
  return {std::move(name), c::bit_blast(rtl),
          c::bit_blast(eda::hash::formal_retime(rtl, cut).retimed)};
}

Pair fig2_pair(int n) {
  const eda::bench_gen::Fig2 fig2 = eda::bench_gen::make_fig2(n);
  return retimed("fig2:" + std::to_string(n), fig2.rtl, fig2.good_cut);
}

/// The engine pass's pairs: posthoc_check cells of every circuit family.
std::vector<Pair> engine_pairs() {
  namespace g = eda::bench_gen;
  std::vector<Pair> pairs;
  pairs.push_back(fig2_pair(4));
  const g::Fig2Deep deep = g::make_fig2_deep(5, 5);
  eda::hash::Cut deep_cut;
  deep_cut.f_nodes = deep.inc_nodes;
  pairs.push_back(retimed("fig2deep:5:5", deep.rtl, deep_cut));
  for (const g::BenchCircuit& bench :
       {g::make_controller("ctrl:2:5", 2, 5),
        g::make_pipeline_alu("pipe:4:4", 4, 4),
        g::make_serial_multiplier("mult:4", 4)}) {
    pairs.push_back(retimed(bench.name, bench.rtl, bench.cut));
  }
  return pairs;
}

Metrics run_micro() {
  Metrics out;
  // (variables, iterations): each batch takes tens of milliseconds.
  for (auto [nv, iters] : {std::pair{16, 8'000}, {64, 200}, {256, 6}}) {
    const double ns = ns_per_op(iters, [nv = nv] {
      b::BddManager m(nv);
      b::BddId f = m.true_bdd();
      for (int k = 0; k < nv; ++k) f = m.lxor(f, m.var(k));
    });
    out.push_back({"ite_chain_" + std::to_string(nv), ns});
  }
  for (int n : {4, 8, 12}) {
    const c::GateNetlist net = c::bit_blast(eda::bench_gen::make_fig2(n).rtl);
    const v::ProductLayout layout = v::product_layout({{&net, &net}});
    const double ns = ns_per_op(2'000 / n, [&] {
      b::BddManager m(layout.total());
      v::build_machine(m, net, layout, v::Side::A);
    });
    out.push_back({"build_fig2_machine_" + std::to_string(n), ns});
  }
  {
    const int nv = 24;
    b::BddManager m(nv);
    b::BddId f = m.true_bdd();
    for (int k = 0; k + 1 < nv; k += 2) {
      f = m.land(f, m.lor(m.var(k), m.var(k + 1)));
    }
    std::vector<int> evens;
    for (int k = 0; k < nv; k += 2) evens.push_back(k);
    out.push_back(
        {"exists_24", ns_per_op(100'000, [&] { m.exists(f, evens); })});
  }
  // Problem setup: fig2:8's product machine in a new manager, and in one
  // reset from the previous build (check_batch's per-thread manager).
  const Pair p = fig2_pair(8);
  const v::ProductLayout layout = v::product_layout({{&p.a, &p.b}});
  b::BddManager reused(layout.total());
  const auto fresh = [&] {
    b::BddManager m(layout.total());
    v::build_product(m, layout, p.a, p.b);
  };
  const auto reset = [&] {
    reused.reset(layout.total());
    v::build_product(reused, layout, p.a, p.b);
  };
  const std::vector<double> setup =
      eda::bench::ns_per_op_each(300, {fresh, reset});
  out.push_back({"product_setup_fresh_fig2_8", setup[0]});
  out.push_back({"product_setup_reset_fig2_8", setup[1]});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_bdd.json";
  eda::bench::Args("bench_bdd_micro")
      .text("--out", "FILE", out_path)
      .parse(argc, argv);

  const Metrics micro = run_micro();
  for (const auto& [name, ns] : micro) {
    std::printf("  micro %-28s %12.1f ns/op\n", name.c_str(), ns);
  }

  const std::vector<Pair> pairs = engine_pairs();
  std::vector<v::CheckJob> jobs;
  for (const Pair& p : pairs) {
    for (Engine e : kEngines) jobs.push_back({&p.a, &p.b, e, {}});
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const v::VerifyResult r = v::run_check(jobs[i]);
    if (!r.completed || !r.equivalent) {
      std::fprintf(stderr, "bench_bdd_micro: %s under %s: %s\n",
                   pairs[i / kNumEngines].name.c_str(),
                   v::engine_name(jobs[i].engine),
                   r.completed ? "NONEQUIV" : "did not complete");
      return 1;
    }
  }
  std::vector<double> best(kNumEngines + 1, 0.0);  // per engine, total
  for (int pass = 0; pass < kEnginePasses; ++pass) {
    std::vector<double> ms(best.size(), 0.0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      v::run_check(jobs[i]);
      const double cell = eda::bench::seconds_since(t0) * 1e3;
      ms[i % kNumEngines] += cell;
      ms.back() += cell;
    }
    for (std::size_t k = 0; k < ms.size(); ++k) {
      best[k] = pass == 0 ? ms[k] : std::min(best[k], ms[k]);
    }
  }
  Metrics engine_ms;
  for (std::size_t k = 0; k < kNumEngines; ++k) {
    engine_ms.push_back({v::engine_name(kEngines[k]), best[k]});
  }
  engine_ms.push_back({"total", best.back()});
  std::printf("  engine pass over %zu cells:", jobs.size());
  for (const auto& [name, ms] : engine_ms) {
    std::printf(" %s %.3f ms", name.c_str(), ms);
  }
  std::printf("\n");

  eda::bench::Json json("bench_bdd_micro");
  json.section("micro_ns_per_op", micro).section("engine_ms", engine_ms);
  if (!json.write(out_path)) return 1;

  double fresh = 0.0, reset = 0.0;
  for (const auto& [name, ns] : micro) {
    if (name == "product_setup_fresh_fig2_8") fresh = ns;
    if (name == "product_setup_reset_fig2_8") reset = ns;
  }
  if (reset >= fresh) {
    std::fprintf(stderr,
                 "bench_bdd_micro: product setup in a reset manager %.1f "
                 "ns >= fresh %.1f ns\n",
                 reset, fresh);
    return 1;
  }
  return 0;
}
