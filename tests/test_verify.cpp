// Tests for the post-synthesis verification baselines: all four engines
// must agree with each other and with bounded simulation.

#include <gtest/gtest.h>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "verify/parallel_verify.h"
#include "verify/sis_fsm.h"
#include "verify/symbolic.h"

namespace c = eda::circuit;
namespace h = eda::hash;
namespace v = eda::verify;

namespace {

struct Pair {
  c::GateNetlist a, b;
};

v::VerifyResult check(v::Engine engine, const c::GateNetlist& a,
                      const c::GateNetlist& b, v::VerifyOptions opts = {}) {
  return v::run_check({&a, &b, engine, opts});
}

Pair retimed_pair(int n_bits) {
  auto fig2 = eda::bench_gen::make_fig2(n_bits);
  h::FormalRetimeResult res = h::formal_retime(fig2.rtl, fig2.good_cut);
  return {c::bit_blast(fig2.rtl), c::bit_blast(res.retimed)};
}

Pair broken_pair(int n_bits) {
  auto fig2 = eda::bench_gen::make_fig2(n_bits);
  auto broken = eda::bench_gen::make_fig2(n_bits);
  // Sabotage: change the register's initial value.
  c::Rtl bad;
  auto a = bad.add_input("a", n_bits);
  auto b2 = bad.add_input("b", n_bits);
  auto reg = bad.add_reg("R", n_bits, 2);
  auto one = bad.add_const(n_bits, 1);
  auto zero = bad.add_const(n_bits, 0);
  auto inc = bad.add_op(c::Op::Add, {reg, one});
  auto cmp = bad.add_op(c::Op::Eq, {a, b2});
  auto y = bad.add_op(c::Op::Mux, {cmp, zero, inc});
  bad.add_output("y", y);
  bad.set_reg_next(reg, y);
  (void)broken;
  return {c::bit_blast(fig2.rtl), c::bit_blast(bad)};
}

}  // namespace

TEST(Combinational, EquivalentAdders) {
  // Two structurally different implementations of the same function:
  // a+b and  b+a  at 6 bits.
  c::Rtl r1;
  auto a1 = r1.add_input("a", 6);
  auto b1 = r1.add_input("b", 6);
  auto s1 = r1.add_op(c::Op::Add, {a1, b1});
  // A combinational netlist still needs the Rtl to have a reg for compile,
  // but bit_blast accepts pure combinational circuits... add none here.
  r1.add_output("s", s1);
  c::Rtl r2;
  auto a2 = r2.add_input("a", 6);
  auto b2 = r2.add_input("b", 6);
  auto s2 = r2.add_op(c::Op::Add, {b2, a2});
  r2.add_output("s", s2);
  EXPECT_TRUE(v::combinational_equivalent(c::bit_blast(r1),
                                          c::bit_blast(r2)));
  // a+b vs a-b differ.
  c::Rtl r3;
  auto a3 = r3.add_input("a", 6);
  auto b3 = r3.add_input("b", 6);
  r3.add_output("s", r3.add_op(c::Op::Sub, {a3, b3}));
  EXPECT_FALSE(v::combinational_equivalent(c::bit_blast(r1),
                                           c::bit_blast(r3)));
}

TEST(Smv, RetimedPairEquivalent) {
  Pair p = retimed_pair(3);
  v::VerifyResult res = check(v::Engine::Smv, p.a, p.b);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.equivalent);
  EXPECT_GT(res.iterations, 0);
}

TEST(Smv, BrokenPairCaught) {
  Pair p = broken_pair(3);
  v::VerifyResult res = check(v::Engine::Smv, p.a, p.b);
  ASSERT_TRUE(res.completed);
  EXPECT_FALSE(res.equivalent);
}

TEST(Sis, RetimedPairEquivalent) {
  Pair p = retimed_pair(3);
  v::VerifyResult res = v::sis_fsm_check(p.a, p.b);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.equivalent);
}

TEST(Sis, BrokenPairCaught) {
  Pair p = broken_pair(3);
  v::VerifyResult res = v::sis_fsm_check(p.a, p.b);
  ASSERT_TRUE(res.completed);
  EXPECT_FALSE(res.equivalent);
}

TEST(Sis, TimesOutOnWideInputs) {
  // 2 x 14 input bits = 2^28 input combinations per state: must bail out.
  Pair p = retimed_pair(14);
  v::VerifyOptions opts;
  opts.timeout_sec = 0.5;
  v::VerifyResult res = v::sis_fsm_check(p.a, p.b, opts);
  EXPECT_FALSE(res.completed);
}

TEST(Eijk, RetimedPairEquivalent) {
  Pair p = retimed_pair(3);
  v::VerifyResult res = check(v::Engine::Eijk, p.a, p.b);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.equivalent);
}

TEST(Eijk, PlusVariantAgrees) {
  Pair p = retimed_pair(4);
  v::VerifyResult plain = check(v::Engine::Eijk, p.a, p.b);
  v::VerifyResult fd = check(v::Engine::EijkPlus, p.a, p.b);
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(fd.completed);
  EXPECT_TRUE(plain.equivalent);
  EXPECT_TRUE(fd.equivalent);
}

TEST(Eijk, BrokenPairCaughtByBoth) {
  Pair p = broken_pair(3);
  v::VerifyResult plain = check(v::Engine::Eijk, p.a, p.b);
  v::VerifyResult fd = check(v::Engine::EijkPlus, p.a, p.b);
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(fd.completed);
  EXPECT_FALSE(plain.equivalent);
  EXPECT_FALSE(fd.equivalent);
}

TEST(AllEngines, AgreeOnIwlsRetimedPairs) {
  for (const auto& bench : eda::bench_gen::iwls_benchmarks()) {
    // Keep it to the small ones for test time.
    c::GateNetlist ga = c::bit_blast(bench.rtl);
    if (ga.ff_count() > 10 || ga.inputs().size() > 10) continue;
    SCOPED_TRACE(bench.name);
    h::FormalRetimeResult res = h::formal_retime(bench.rtl, bench.cut);
    c::GateNetlist gb = c::bit_blast(res.retimed);
    v::VerifyOptions opts;
    opts.timeout_sec = 20.0;
    v::VerifyResult smv = check(v::Engine::Smv, ga, gb, opts);
    v::VerifyResult sis = v::sis_fsm_check(ga, gb, opts);
    v::VerifyResult e1 = check(v::Engine::Eijk, ga, gb, opts);
    v::VerifyResult e2 = check(v::Engine::EijkPlus, ga, gb, opts);
    if (smv.completed) {
      EXPECT_TRUE(smv.equivalent);
    }
    if (sis.completed) {
      EXPECT_TRUE(sis.equivalent);
    }
    if (e1.completed) {
      EXPECT_TRUE(e1.equivalent);
    }
    if (e2.completed) {
      EXPECT_TRUE(e2.equivalent);
    }
    // At least the symbolic engines should finish on these sizes.
    EXPECT_TRUE(smv.completed || e1.completed);
  }
}

TEST(AllEngines, MutationsAreCaught) {
  // Mutate the retimed fig2 netlist in several ways; every completing
  // engine must reject.
  auto fig2 = eda::bench_gen::make_fig2(3);
  h::FormalRetimeResult ok = h::formal_retime(fig2.rtl, fig2.good_cut);
  c::GateNetlist ga = c::bit_blast(fig2.rtl);
  for (int mutation = 0; mutation < 3; ++mutation) {
    // Mutations on the retimed netlist: flip init, swap mux arms, change op.
    c::Rtl rebuilt;
    auto a = rebuilt.add_input("a", 3);
    auto b = rebuilt.add_input("b", 3);
    auto reg = rebuilt.add_reg("R", 3, mutation == 0 ? 0u : 1u);
    auto one = rebuilt.add_const(3, 1);
    auto zero = rebuilt.add_const(3, 0);
    auto cmp = rebuilt.add_op(c::Op::Eq, {a, b});
    auto y = mutation == 1
                 ? rebuilt.add_op(c::Op::Mux, {cmp, reg, zero})
                 : rebuilt.add_op(c::Op::Mux, {cmp, zero, reg});
    auto nxt = mutation == 2 ? rebuilt.add_op(c::Op::Sub, {y, one})
                             : rebuilt.add_op(c::Op::Add, {y, one});
    rebuilt.set_reg_next(reg, nxt);
    rebuilt.add_output("y", y);
    c::GateNetlist gb = c::bit_blast(rebuilt);
    SCOPED_TRACE(mutation);
    v::VerifyResult smv = check(v::Engine::Smv, ga, gb);
    ASSERT_TRUE(smv.completed);
    EXPECT_FALSE(smv.equivalent);
    v::VerifyResult sis = v::sis_fsm_check(ga, gb);
    ASSERT_TRUE(sis.completed);
    EXPECT_FALSE(sis.equivalent);
  }
}
