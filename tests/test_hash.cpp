// Integration tests for the HASH formal synthesis core: circuit
// compilation, the formal retiming step (the paper's 4-step procedure),
// faulty-cut rejection, compound steps and formal logic minimisation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "hash/compile.h"
#include "hash/compound.h"
#include "hash/eval.h"
#include "hash/logic_opt.h"
#include "hash/retime_step.h"
#include "kernel/printer.h"
#include "logic/bool_thms.h"
#include "theories/numeral.h"
#include "theories/pair_theory.h"

namespace c = eda::circuit;
namespace h = eda::hash;
namespace k = eda::kernel;
namespace l = eda::logic;
namespace thy = eda::thy;
using k::Term;
using k::Thm;

TEST(Compile, Fig2Shapes) {
  auto fig2 = eda::bench_gen::make_fig2(4);
  h::CompiledCircuit cc = h::compile(fig2.rtl);
  EXPECT_TRUE(cc.h.is_abs());
  // h : (num#num # num) -> ((num) # (num))
  EXPECT_EQ(cc.input_ty, k::prod_ty(k::num_ty(), k::num_ty()));
  EXPECT_EQ(cc.state_ty, k::num_ty());
  // q = 0.
  EXPECT_EQ(cc.q, thy::mk_numeral(0));
}

TEST(Compile, RejectsCircuitsWithoutRegs) {
  c::Rtl r;
  auto a = r.add_input("a", 4);
  r.add_output("y", a);
  EXPECT_THROW(h::compile(r), k::KernelError);
}

TEST(CompileSplit, GoodCutFig2) {
  auto fig2 = eda::bench_gen::make_fig2(4);
  h::SplitCircuit split = h::compile_split(fig2.rtl, fig2.good_cut);
  // f = \s. (s + 1) MOD 16 — one chi component, the incrementer output.
  EXPECT_TRUE(split.f.is_abs());
  ASSERT_EQ(split.chi.size(), 1u);
  EXPECT_EQ(split.chi[0], fig2.good_cut.f_nodes[0]);
}

TEST(CompileSplit, FalseCutThrows) {
  // The paper's fig. 4: f = {comparator, mux} depends on inputs and on the
  // incrementer — the pattern cannot match and the derivation must fail.
  auto fig2 = eda::bench_gen::make_fig2(4);
  EXPECT_THROW(h::compile_split(fig2.rtl, fig2.false_cut), h::CutError);
}

TEST(CompileSplit, CutWithFlagNodeThrows) {
  auto fig2 = eda::bench_gen::make_fig2(4);
  // Cut consisting of just the comparator: a flag cannot be registered.
  h::Cut cut;
  cut.f_nodes = {fig2.false_cut.f_nodes[0]};  // the comparator
  EXPECT_THROW(h::compile_split(fig2.rtl, cut), h::CutError);
}

TEST(GroundEval, PairAndCond) {
  // FST (3, 4) + SND (3, 4)  -->  7
  Term p = thy::mk_pair(thy::mk_numeral(3), thy::mk_numeral(4));
  Term t = thy::mk_arith("+", thy::mk_fst(p), thy::mk_snd(p));
  Thm th = h::ground_eval(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), thy::mk_numeral(7));
  // if (2 = 2) then 5 else 6  -->  5
  Term cond = l::mk_cond(k::mk_eq(thy::mk_numeral(2), thy::mk_numeral(2)),
                         thy::mk_numeral(5), thy::mk_numeral(6));
  EXPECT_EQ(k::eq_rhs(h::ground_eval(cond).concl()), thy::mk_numeral(5));
}

namespace {

using Wide = unsigned __int128;

/// The exact value of a ground arithmetic term in 128 bits, computed apart
/// from theories/numeral.cpp; nullopt for any other form and on overflow.
std::optional<Wide> recompute(const Term& t) {
  if (t.is_const() && t.name() == "_0") return Wide{0};
  auto [head, args] = k::strip_comb(t);
  if (!head.is_const()) return std::nullopt;
  const std::string& op = head.name();
  std::optional<Wide> a, b;
  if (!args.empty() && !(a = recompute(args[0]))) return std::nullopt;
  if (args.size() == 2 && !(b = recompute(args[1]))) return std::nullopt;
  Wide r = 0;
  if (args.size() == 1) {
    if (op == "NUMERAL") return a;
    if (op == "SUC" && !__builtin_add_overflow(*a, Wide{1}, &r)) return r;
    if (op == "BIT0" && !__builtin_mul_overflow(*a, Wide{2}, &r)) return r;
    if (op == "BIT1" && !__builtin_mul_overflow(*a, Wide{2}, &r) &&
        !__builtin_add_overflow(r, Wide{1}, &r)) {
      return r;
    }
    return std::nullopt;
  }
  if (args.size() != 2) return std::nullopt;
  if (op == "+" && !__builtin_add_overflow(*a, *b, &r)) return r;
  if (op == "*" && !__builtin_mul_overflow(*a, *b, &r)) return r;
  if (op == "-") return *a >= *b ? *a - *b : 0;
  if (op == "DIV" && *b != 0) return *a / *b;
  if (op == "MOD" && *b != 0) return *a % *b;
  if (op == "EXP" && *b < 128) {
    r = 1;
    for (Wide i = 0; i < *b; ++i) {
      if (__builtin_mul_overflow(r, *a, &r)) return std::nullopt;
    }
    return r;
  }
  return std::nullopt;
}

}  // namespace

TEST(GroundEval, WideMultiplierAdmitsOnlyTrueEquations) {
  // A 62-bit circuit whose registers start at 2^61 + k and 8, with the cut
  // moving their product into f: evaluating f(q) multiplies past 64 bits
  // (2^64 + 8k) before MOD 2^62 brings the value back to 8k.  Every
  // equation the oracle admits on the way must hold when recomputed in 128
  // bits; a wrapping evaluator admitted |- 2^61 * 8 = 0.  `ground_eval`
  // memoises for the process, so k counts this test's runs: each run's
  // products are new to the memo, and the oracle admits them again.
  static std::uint64_t run = 0;
  c::Rtl rtl;
  const c::SignalId in = rtl.add_input("i", 62);
  const c::SignalId a = rtl.add_reg("a", 62, (std::uint64_t{1} << 61) + run++);
  const c::SignalId b = rtl.add_reg("b", 62, 8);
  const c::SignalId product = rtl.add_op(c::Op::Mul, {a, b});
  rtl.set_reg_next(a, in);
  rtl.set_reg_next(b, a);
  rtl.add_output("y", rtl.add_op(c::Op::Add, {product, in}));
  h::Cut cut;
  cut.f_nodes = {product};

  k::Oracle::Log log;
  h::FormalRetimeResult res = h::formal_retime(rtl, cut);
  ASSERT_FALSE(log.admitted().empty());
  bool saw_product = false;
  for (const Term& eq : log.admitted()) {
    const Term lhs = k::eq_lhs(eq);
    const Term rhs = k::eq_rhs(eq);
    saw_product = saw_product || k::pretty(lhs).find('*') != std::string::npos;
    if (rhs.type() == k::num_ty()) {
      const std::optional<Wide> want = recompute(lhs);
      const std::optional<Wide> got = recompute(rhs);
      ASSERT_TRUE(want && got) << k::pretty(eq);
      EXPECT_TRUE(*want == *got) << k::pretty(eq);
      continue;
    }
    auto [pred, args] = k::strip_comb(lhs);
    ASSERT_EQ(args.size(), 2u) << k::pretty(eq);
    const std::optional<Wide> x = recompute(args[0]);
    const std::optional<Wide> y = recompute(args[1]);
    ASSERT_TRUE(x && y) << k::pretty(eq);
    const std::string& op = pred.name();
    const bool holds = op == "=" ? *x == *y : op == "<" ? *x < *y : *x <= *y;
    EXPECT_EQ(rhs, holds ? l::truth_tm() : l::falsity_tm()) << k::pretty(eq);
  }
  // The product is evaluated inside its MOD parent, exactly.
  EXPECT_TRUE(saw_product);
  EXPECT_TRUE(c::simulation_equivalent(rtl, res.retimed, 200, 7));
}

TEST(FormalRetime, Fig2GoodCut) {
  auto fig2 = eda::bench_gen::make_fig2(4);
  h::FormalRetimeResult res = h::formal_retime(fig2.rtl, fig2.good_cut);

  // The theorem exists, with only the compute oracle in its provenance.
  EXPECT_TRUE(res.theorem.hyps().empty());
  for (const auto& tag : res.theorem.oracles()) {
    EXPECT_EQ(tag, thy::kNumComputeTag);
  }

  // The theorem's left side is the *original* compiled circuit.
  h::CompiledCircuit orig = h::compile(fig2.rtl);
  auto [vars, body] = l::strip_forall(res.theorem.concl());
  ASSERT_EQ(vars.size(), 2u);
  Term lhs = k::eq_lhs(body);
  auto [head, args] = k::strip_comb(lhs);
  ASSERT_EQ(args.size(), 4u);
  EXPECT_EQ(args[0], orig.h);
  EXPECT_EQ(args[1], orig.q);
  // And the right side is the compiled retimed circuit.
  h::CompiledCircuit ret = h::compile(res.retimed);
  Term rhs = k::eq_rhs(body);
  auto [head2, args2] = k::strip_comb(rhs);
  EXPECT_EQ(args2[0], ret.h);
  EXPECT_EQ(args2[1], ret.q);

  // New initial value is f(0) = 1 (the paper's D0 -> D(f q) move).
  ASSERT_EQ(res.retimed.regs().size(), 1u);
  EXPECT_EQ(res.retimed.node(res.retimed.regs()[0]).value, 1u);

  // Behavioural check: the retimed netlist is simulation-equivalent.
  EXPECT_TRUE(c::simulation_equivalent(fig2.rtl, res.retimed, 300, 123));
}

TEST(FormalRetime, FalseCutRaisesAndProducesNothing) {
  auto fig2 = eda::bench_gen::make_fig2(4);
  EXPECT_THROW(h::formal_retime(fig2.rtl, fig2.false_cut), h::CutError);
}

TEST(FormalRetime, DeepPipelinePrefixCuts) {
  auto deep = eda::bench_gen::make_fig2_deep(4, 3);
  for (std::size_t m = 1; m <= deep.inc_nodes.size(); ++m) {
    h::Cut cut;
    cut.f_nodes.assign(deep.inc_nodes.begin(),
                       deep.inc_nodes.begin() + static_cast<long>(m));
    h::FormalRetimeResult res = h::formal_retime(deep.rtl, cut);
    EXPECT_TRUE(c::simulation_equivalent(deep.rtl, res.retimed, 200,
                                         static_cast<unsigned>(m)))
        << "prefix " << m;
    // Initial value of the moved register is m (0 incremented m times).
    EXPECT_EQ(res.retimed.node(res.retimed.regs()[0]).value, m);
  }
}

TEST(FormalRetime, IwlsFamily) {
  for (const auto& b : eda::bench_gen::iwls_benchmarks()) {
    SCOPED_TRACE(b.name);
    h::FormalRetimeResult res = h::formal_retime(b.rtl, b.cut);
    EXPECT_TRUE(res.theorem.hyps().empty());
    EXPECT_TRUE(c::simulation_equivalent(b.rtl, res.retimed, 200, 99));
  }
}

TEST(FormalRetime, ConventionalAgreesWithFormal) {
  auto fig2 = eda::bench_gen::make_fig2(6);
  c::Rtl conv = h::conventional_retime(fig2.rtl, fig2.good_cut);
  h::FormalRetimeResult res = h::formal_retime(fig2.rtl, fig2.good_cut);
  EXPECT_TRUE(c::simulation_equivalent(conv, res.retimed, 200, 5));
}

TEST(Compound, TwoRetimingStepsCompose) {
  auto deep = eda::bench_gen::make_fig2_deep(4, 2);
  // Step 1: move registers across the first incrementer.
  h::Cut cut1;
  cut1.f_nodes = {deep.inc_nodes[0]};
  h::FormalRetimeResult s1 = h::formal_retime(deep.rtl, cut1);
  // Step 2: retime the result across its remaining incrementer.
  h::Cut cut2 = eda::bench_gen::max_forward_cut(s1.retimed);
  h::FormalRetimeResult s2 = h::formal_retime(s1.retimed, cut2);
  // Compose: |- !i t. AUT h0 q0 i t = AUT h2 q2 i t.
  Thm compound = h::compose_steps(s1.theorem, s2.theorem);
  auto [vars, body] = l::strip_forall(compound.concl());
  Term lhs = k::eq_lhs(body);
  Term rhs = k::eq_rhs(body);
  h::CompiledCircuit first = h::compile(deep.rtl);
  h::CompiledCircuit last = h::compile(s2.retimed);
  EXPECT_EQ(k::strip_comb(lhs).second[0], first.h);
  EXPECT_EQ(k::strip_comb(rhs).second[0], last.h);
  EXPECT_TRUE(c::simulation_equivalent(deep.rtl, s2.retimed, 200, 11));
}

TEST(LogicOpt, ConstantFoldingAndIdentities) {
  c::Rtl r;
  auto a = r.add_input("a", 4);
  auto reg = r.add_reg("r", 4, 0);
  auto c2 = r.add_const(4, 2);
  auto c3 = r.add_const(4, 3);
  auto five = r.add_op(c::Op::Add, {c2, c3});     // folds to 5
  auto same = r.add_op(c::Op::Eq, {a, a});        // folds to T
  auto pick = r.add_op(c::Op::Mux, {same, five, reg});  // folds to 5
  auto sum = r.add_op(c::Op::Add, {pick, a});
  r.set_reg_next(reg, sum);
  r.add_output("y", sum);
  c::Rtl opt = h::conventional_logic_opt(r);
  EXPECT_LT(opt.comb_node_count(), r.comb_node_count());
  EXPECT_TRUE(c::simulation_equivalent(r, opt, 100, 3));
}

TEST(LogicOpt, FormalTheoremMatchesNetlists) {
  c::Rtl r;
  auto a = r.add_input("a", 4);
  auto reg = r.add_reg("r", 4, 1);
  auto c1 = r.add_const(4, 1);
  auto c1b = r.add_const(4, 1);
  auto dup1 = r.add_op(c::Op::Add, {reg, c1});
  auto dup2 = r.add_op(c::Op::Add, {reg, c1b});   // CSE duplicate
  auto eqf = r.add_op(c::Op::Eq, {dup1, dup2});   // always T after CSE
  auto y = r.add_op(c::Op::Mux, {eqf, dup1, a});
  r.set_reg_next(reg, y);
  r.add_output("y", y);
  h::FormalOptResult res = h::formal_logic_opt(r);
  EXPECT_TRUE(res.theorem.hyps().empty());
  EXPECT_TRUE(c::simulation_equivalent(r, res.optimized, 100, 17));
  EXPECT_LT(res.optimized.comb_node_count(), r.comb_node_count());
}

TEST(Compound, RetimeThenOptimise) {
  // The paper's headline combination: retiming followed by logic
  // minimisation, verified end-to-end by one transitivity application.
  auto fig2 = eda::bench_gen::make_fig2(4);
  h::FormalRetimeResult rt = h::formal_retime(fig2.rtl, fig2.good_cut);
  h::FormalOptResult op = h::formal_logic_opt(rt.retimed);
  Thm compound = h::compose_steps(rt.theorem, op.theorem);
  EXPECT_TRUE(compound.hyps().empty());
  EXPECT_TRUE(c::simulation_equivalent(fig2.rtl, op.optimized, 300, 21));
}

// The paper's two cost claims as counts of kernel inferences
// (`Thm::theorems_constructed()` deltas), which host noise cannot move.
// Other tests in this binary warm the shared memos first, so these assert
// bands and equalities, never pinned totals; bench_table1 records the
// totals and tools/check_tables.py gates them.
namespace {
std::uint64_t inferences_of(const std::function<void()>& step) {
  const std::uint64_t c0 = Thm::theorems_constructed();
  step();
  return Thm::theorems_constructed() - c0;
}
}  // namespace

TEST(HashCost, Fig2InferencesFlatInBitwidth) {
  // Table I: HASH's cost barely grows with n.  One untimed retime warms
  // the memos every width shares, as Table I's n = 1 row does.
  auto warm = eda::bench_gen::make_fig2(1);
  h::formal_retime(warm.rtl, warm.good_cut);
  std::vector<std::uint64_t> counts;
  for (int n = 2; n <= 8; ++n) {
    auto fig2 = eda::bench_gen::make_fig2(n);
    auto retime = [&] { h::formal_retime(fig2.rtl, fig2.good_cut); };
    counts.push_back(inferences_of(retime));
  }
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*lo, 0u);
  EXPECT_LE(*hi * 10, *lo * 11) << "fig2:2..8 spread " << *lo << ".." << *hi;
}

TEST(HashCost, ComposeCostsTheSameAtEveryWidth) {
  // Section III.A: composing two steps is one transitivity rule on shared
  // structure, so its cost does not depend on the circuit.
  std::vector<std::uint64_t> counts;
  for (int n : {2, 8, 32}) {
    auto fig2 = eda::bench_gen::make_fig2(n);
    h::FormalRetimeResult rt = h::formal_retime(fig2.rtl, fig2.good_cut);
    h::FormalOptResult op = h::formal_logic_opt(rt.retimed);
    auto compose = [&] { h::compose_steps(rt.theorem, op.theorem); };
    counts.push_back(inferences_of(compose));
  }
  EXPECT_GT(counts[0], 0u);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
}
