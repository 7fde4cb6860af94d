// Parallel-scaling benchmark for the concurrent kernel.
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
// Alongside the scaling curve the benchmark measures the single-thread
// kernel micro numbers, so one artifact tracks both regressions and
// scaling: the paper's cost model for formal synthesis (section III) is
// that primitive rule applications are cheap pointer operations, TRANS
// constant-time on shared structure, so the section times term and type
// construction, equality, free variables, substitution, the REFL, TRANS,
// MK_COMB and BETA rules, and a rewrite that fires and conversions that
// decline.  Everything goes to machine-readable JSON (default
// BENCH_kernel.json; CI gates it and uploads it).  A `term_store_bytes`
// section counts the permanent bytes the micro section's terms add to the
// term store, per interned node; counts repeat exactly on any host.

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_gen/fig2.h"
#include "harness.h"
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

using eda::bench::Clock;
using eda::bench::ns_per_op;
using eda::bench::seconds_since;

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

/// The permanent bytes that the micro section's depth-18 tower, wide term
/// and `r` add to the term store: arena bytes (nodes and their names) and
/// free-variable view bytes, once every new node's view is built, each per
/// new interned node.  main runs it first, so the count does not depend on
/// the other sections.
eda::bench::Metrics measure_term_store() {
  namespace k = eda::kernel;
  const k::detail::InternStats before = k::Term::intern_stats();
  const std::vector<k::Term> family = {big_term(18), wide_term(),
                                       k::Term::var("r", k::bool_ty())};
  // A node's view is built from its children's, so the roots' views
  // build every node's.
  for (const k::Term& t : family) k::free_vars_set(t);
  const k::detail::InternStats after = k::Term::intern_stats();
  const std::size_t nodes = after.live_nodes - before.live_nodes;
  const double n = static_cast<double>(nodes);
  const double arena = (after.arena_bytes - before.arena_bytes) / n;
  const double fv = (after.free_var_bytes - before.free_var_bytes) / n;
  std::printf(
      "bench_parallel: term store %zu nodes, %.2f arena + %.2f free-var "
      "bytes per node\n",
      nodes, arena, fv);
  return {{"arena_bytes_per_node", arena}, {"free_var_bytes_per_node", fv}};
}

eda::bench::Metrics run_micro() {
  namespace k = eda::kernel;
  namespace l = eda::logic;
  using k::Term;
  using k::Thm;
  eda::bench::Metrics out;
  out.push_back({"term_construction_depth16",
                 ns_per_op(20000, [] { big_term(16); })});
  const k::Type b = k::bool_ty();
  out.push_back({"type_construction_depth32", ns_per_op(10000, [&] {
                   k::Type ty = b;
                   for (int i = 0; i < 32; ++i) ty = k::fun_ty(ty, b);
                 })});
  const Term t1 = big_term(18);
  const Term t2 = big_term(18);
  out.push_back({"equality_depth18", ns_per_op(1000000, [&] {
                   volatile bool eq = t1 == t2;
                   (void)eq;
                 })});
  // collect_free_vars is the set path substitution and bool_thms take.
  const Term wide = wide_term();
  out.push_back({"free_vars_wide", ns_per_op(10000, [&] {
                   std::set<Term> fv;
                   k::collect_free_vars(wide, fv);
                 })});
  const Term x = Term::var("x", k::bool_ty());
  const Term big = big_term(256);
  const k::TermSubst x_to_y = {{x, Term::var("y", k::bool_ty())}};
  out.push_back({"vsubst_depth256",
                 ns_per_op(300, [&] { k::vsubst(x_to_y, big); })});
  const Term r = Term::var("r", k::bool_ty());
  out.push_back({"refl", ns_per_op(300000, [&] { Thm::refl(r); })});
  // TRANS on a = p and p = a costs the same at any depth of a.
  for (int depth : {1, 1024}) {
    const Term a = big_term(depth);
    const Term p = Term::var("p", a.type());
    const Thm ap = Thm::assume(k::mk_eq(a, p));
    const Thm pa = Thm::assume(k::mk_eq(p, a));
    out.push_back({"trans_shared_depth" + std::to_string(depth),
                   ns_per_op(100000, [&] { Thm::trans(ap, pa); })});
  }
  const Thm f_refl =
      Thm::refl(Term::var("f", k::fun_ty(k::bool_ty(), k::bool_ty())));
  const Thm x_refl = Thm::refl(x);
  out.push_back(
      {"mk_comb", ns_per_op(100000, [&] { Thm::mk_comb(f_refl, x_refl); })});
  const Term redex =
      Term::comb(Term::abs(x, k::mk_eq(x, big_term(128))), x);
  out.push_back({"beta_depth128", ns_per_op(1000, [&] { Thm::beta(redex); })});
  // A rewrite that fires, FST (r, r) to r; then the same conversion and
  // beta_conv declining on `r = r`, which is no FST (x, y) and no
  // beta-redex: a decline throws ConvError, and tryc catches it.
  const l::Conv fst = l::rewr_conv(eda::thy::fst_pair());
  const Term fst_rr = eda::thy::mk_fst(eda::thy::mk_pair(r, r));
  out.push_back({"rewr_conv_fires", ns_per_op(20000, [&] { fst(fst_rr); })});
  const Term r_eq_r = k::mk_eq(r, r);
  const l::Conv beta = l::tryc(l::beta_conv);
  const l::Conv rewr = l::tryc(fst);
  out.push_back({"decline_beta", ns_per_op(10000, [&] { beta(r_eq_r); })});
  out.push_back({"decline_rewr", ns_per_op(10000, [&] { rewr(r_eq_r); })});
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

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  int copies = 3;  // obligations per width; total = copies * |widths|
  std::vector<unsigned> thread_counts{1, 2, 4, 8};
  bool quick = false;
  eda::bench::Args("bench_parallel")
      .text("--out", "FILE", out_path)
      .number("--copies", "N", copies, 1, 1000)
      .flag("--quick", quick)
      .parse(argc, argv);
  if (quick) copies = 1;

  const eda::bench::Metrics store = measure_term_store();

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
  std::vector<eda::bench::Metrics> curve;
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
    const double sec = seconds_since(t0);
    if (threads == 1) t1_sec = sec;
    const double speedup = t1_sec > 0 ? t1_sec / sec : 1.0;
    curve.push_back(
        {{"threads", threads}, {"seconds", sec}, {"speedup", speedup}});
    std::printf("  threads=%u  %.3f s  speedup %.2fx\n", threads, sec,
                speedup);
  }

  const eda::bench::Metrics micro = run_micro();
  for (const auto& [name, ns] : micro) {
    std::printf("  micro %-28s %10.1f ns/op\n", name.c_str(), ns);
  }

  eda::bench::Json json("bench_parallel");
  json.field("obligations", obligations.size())
      .field("hardware_threads", eda::kernel::default_thread_count())
      .section("micro_ns_per_op", micro)
      .section("term_store_bytes", store)
      .array("scaling");
  for (const eda::bench::Metrics& point : curve) json.section("", point);
  return json.write(out_path) ? 0 : 1;
}
