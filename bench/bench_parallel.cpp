// Parallel-scaling benchmark for the concurrent kernel (PR 3).
//
// Workload: a batch of independent proof obligations — formal retiming of
// the figure-2 circuit at several bitwidths followed by structural
// verification of the result — executed at increasing thread counts on the
// work-stealing pool.  This is exactly the multi-circuit traffic shape the
// ROADMAP's north star describes: every obligation replays synthesis steps
// through the inference kernel, so the run hammers the sharded interner,
// the concurrent memo tables and the per-node caches from all threads at
// once.
//
// Alongside the scaling curve the benchmark re-measures the single-thread
// kernel micro numbers (term construction, equality, free-vars, REFL and a
// conversion's decline) so one artifact tracks both regressions and
// scaling, and writes everything as machine-readable JSON (default
// BENCH_kernel.json; CI uploads it so the perf trajectory is visible from
// change to change).  A `term_store_bytes` section counts the permanent
// bytes the micro section's terms add to the term store, per interned
// node; counts repeat exactly on any host.
//
// No google-benchmark dependency: timing is steady_clock around explicit
// batches, which is accurate at these (micro- to second-scale) durations
// and keeps the tool buildable everywhere the examples build.

#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_gen/fig2.h"
#include "hash/retime_step.h"
#include "kernel/parallel.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "logic/conv.h"
#include "logic/rewrite.h"
#include "theories/pair_theory.h"
#include "theories/retiming_thm.h"
#include "verify/retime_match.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Micro section (single-thread ns/op, regression tracking) -------------

eda::kernel::Term big_term(int depth) {
  eda::kernel::Term t = eda::kernel::Term::var("x", eda::kernel::bool_ty());
  for (int i = 0; i < depth; ++i) t = eda::kernel::mk_eq(t, t);
  return t;
}

/// 64 distinct leaves folded into one equation chain four times over.
eda::kernel::Term wide_term() {
  namespace k = eda::kernel;
  std::vector<k::Term> leaves;
  for (int i = 0; i < 64; ++i) {
    leaves.push_back(k::Term::var("x" + std::to_string(i), k::bool_ty()));
  }
  k::Term t = leaves[0];
  for (int round = 0; round < 4; ++round) {
    for (const k::Term& leaf : leaves) t = k::mk_eq(t, leaf);
  }
  return t;
}

struct StoreBytes {
  std::size_t nodes = 0;
  double arena_per_node = 0.0;
  double free_vars_per_node = 0.0;
};

/// The permanent bytes the micro section's terms add to the term store:
/// arena bytes (nodes and their names) and free-variable view bytes, once
/// every new node's view is built, each per new interned node.  main runs
/// it first, so the count does not depend on the scaling section.
StoreBytes measure_term_store() {
  namespace k = eda::kernel;
  const k::detail::InternStats before = k::Term::intern_stats();
  const std::vector<k::Term> family = {big_term(18), wide_term(),
                                       k::Term::var("r", k::bool_ty())};
  // A node's view is built from its children's, so the roots' views
  // build every node's.
  for (const k::Term& t : family) k::free_vars_set(t);
  const k::detail::InternStats after = k::Term::intern_stats();
  StoreBytes out;
  out.nodes = after.live_nodes - before.live_nodes;
  const double n = static_cast<double>(out.nodes);
  out.arena_per_node =
      static_cast<double>(after.arena_bytes - before.arena_bytes) / n;
  out.free_vars_per_node =
      static_cast<double>(after.free_var_bytes - before.free_var_bytes) / n;
  return out;
}

double ns_per_op(int iters, const std::function<void()>& op) {
  // One warm-up call so interning/memo effects settle, then best-of-3
  // batches: the CI bench-regression gate compares these numbers against a
  // committed baseline, and the minimum is far more stable across noisy
  // shared runners than a single batch (same methodology as the ROADMAP's
  // interleaved A/B minima).
  op();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) op();
    double ns = seconds_since(t0) * 1e9 / iters;
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

struct MicroResult {
  std::string name;
  double ns;
};

std::vector<MicroResult> run_micro() {
  namespace k = eda::kernel;
  std::vector<MicroResult> out;
  out.push_back({"term_construction_depth16",
                 ns_per_op(20000, [] { big_term(16); })});
  k::Term t1 = big_term(18);
  k::Term t2 = big_term(18);
  out.push_back({"equality_depth18", ns_per_op(1000000, [&] {
                   volatile bool eq = t1 == t2;
                   (void)eq;
                 })});
  k::Term wide = wide_term();
  out.push_back(
      {"free_vars_wide", ns_per_op(100000, [&] { k::free_vars(wide); })});
  k::Term r = k::Term::var("r", k::bool_ty());
  out.push_back({"refl", ns_per_op(1000000, [&] { k::Thm::refl(r); })});
  // A conversion that does not apply declines by throwing ConvError, and
  // the combinators catch it; these two price that path on `r = r`, which
  // is no beta-redex and no FST (x, y).
  namespace l = eda::logic;
  const k::Term r_eq_r = k::mk_eq(r, r);
  const l::Conv beta = l::tryc(l::beta_conv);
  const l::Conv rewr = l::tryc(l::rewr_conv(eda::thy::fst_pair()));
  out.push_back({"decline_beta", ns_per_op(100000, [&] { beta(r_eq_r); })});
  out.push_back({"decline_rewr", ns_per_op(100000, [&] { rewr(r_eq_r); })});
  return out;
}

// --- Scaling section (multi-circuit verification workload) -----------------

struct Obligation {
  eda::circuit::Rtl original;
  eda::hash::Cut cut;
};

/// One proof obligation end-to-end: formal retime through the kernel, then
/// structural verification of the result.  Throws on any failure — the
/// benchmark only measures correct runs.
void run_obligation(const Obligation& ob) {
  eda::hash::FormalRetimeResult res =
      eda::hash::formal_retime(ob.original, ob.cut);
  eda::verify::RetimeMatchResult m =
      eda::verify::verify_retiming(ob.original, res.retimed);
  if (!m.equivalent) {
    throw std::runtime_error("bench_parallel: verification failed: " +
                             m.reason);
  }
}

struct ScalePoint {
  unsigned threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  int copies = 3;  // obligations per width; total = copies * |widths|
  std::vector<unsigned> thread_counts{1, 2, 4, 8};
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
    if (arg == "--copies" && a + 1 < argc) copies = std::stoi(argv[++a]);
    if (arg == "--quick") quick = true;
  }
  if (quick) copies = 1;

  const StoreBytes store = measure_term_store();
  std::printf(
      "bench_parallel: term store %zu nodes, %.2f arena + %.2f free-var "
      "bytes per node\n",
      store.nodes, store.arena_per_node, store.free_vars_per_node);

  // Prove the universal theorem and compile the circuits up front so the
  // timed region is purely the per-obligation work.
  eda::thy::retiming_thm();
  std::vector<int> widths = quick ? std::vector<int>{4, 6, 8}
                                  : std::vector<int>{4, 6, 8, 10, 12, 16};
  std::vector<Obligation> obligations;
  for (int copy = 0; copy < copies; ++copy) {
    for (int n : widths) {
      auto fig2 = eda::bench_gen::make_fig2(n);
      obligations.push_back({fig2.rtl, fig2.good_cut});
    }
  }

  // Warm-up pass: pays one-time interning/memo costs so every thread count
  // measures the same steady-state work (and validates the obligations).
  for (const Obligation& ob : obligations) run_obligation(ob);

  std::printf("bench_parallel: %zu obligations (fig2 widths x%d)\n",
              obligations.size(), copies);
  std::vector<ScalePoint> curve;
  double t1_sec = 0.0;
  for (unsigned threads : thread_counts) {
    auto t0 = Clock::now();
    if (threads == 1) {
      // True single stream — no pool, so the baseline is not quietly
      // caller+worker.
      for (const Obligation& ob : obligations) run_obligation(ob);
    } else {
      // parallel_for's caller participates, so a pool of threads-1
      // workers plus the caller gives exactly `threads` streams.  A fresh
      // pool per point pins the level; ThreadPool::global() stays
      // untouched.
      eda::kernel::ThreadPool pool(threads - 1);
      eda::kernel::parallel_for(
          obligations.size(),
          [&](std::size_t i) { run_obligation(obligations[i]); }, pool);
    }
    ScalePoint p;
    p.threads = threads;
    p.seconds = seconds_since(t0);
    if (threads == 1) t1_sec = p.seconds;
    p.speedup = t1_sec > 0 ? t1_sec / p.seconds : 1.0;
    curve.push_back(p);
    std::printf("  threads=%u  %.3f s  speedup %.2fx\n", threads, p.seconds,
                p.speedup);
  }

  std::vector<MicroResult> micro = run_micro();
  for (const MicroResult& m : micro) {
    std::printf("  micro %-28s %10.1f ns/op\n", m.name.c_str(), m.ns);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_parallel: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_parallel\",\n");
  std::fprintf(f, "  \"obligations\": %zu,\n", obligations.size());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               eda::kernel::default_thread_count());
  std::fprintf(f, "  \"micro_ns_per_op\": {\n");
  for (std::size_t i = 0; i < micro.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.1f%s\n", micro[i].name.c_str(),
                 micro[i].ns, i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"term_store_bytes\": {\n");
  std::fprintf(f, "    \"arena_bytes_per_node\": %.4f,\n",
               store.arena_per_node);
  std::fprintf(f, "    \"free_var_bytes_per_node\": %.4f\n",
               store.free_vars_per_node);
  std::fprintf(f, "  },\n  \"scaling\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::fprintf(
        f,
        "    {\"threads\": %u, \"seconds\": %.4f, \"speedup\": %.3f}%s\n",
        curve[i].threads, curve[i].seconds, curve[i].speedup,
        i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
