// Tests for the post-synthesis verification baselines: all four engines
// must agree with each other and with bounded simulation.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <set>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "testlib/gen.h"
#include "verify/parallel_verify.h"
#include "verify/sis_fsm.h"
#include "verify/symbolic.h"

namespace c = eda::circuit;
namespace h = eda::hash;
namespace v = eda::verify;
namespace tl = eda::testlib;

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

/// The scalar explicit-state search that sis_fsm_check's 64-lane search
/// replaced: one (state, input vector) pair per GateSimulator::eval, states
/// as bit vectors in an ordered set.  Kept here as the differential
/// reference; sis_fsm_check must reproduce its verdicts, `iterations` and
/// `peak` exactly.
v::VerifyResult reference_sis(const c::GateNetlist& a,
                              const c::GateNetlist& b,
                              const v::VerifyOptions& opts) {
  v::VerifyResult res;
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    res.completed = true;
    res.equivalent = false;
    return res;
  }
  const std::size_t ni = a.inputs().size();
  if (ni > 24) {
    res.failure = v::FailureKind::ResourceExhausted;
    return res;
  }
  c::GateSimulator sa(a), sb(b);
  std::vector<bool> init;
  for (bool bit : sa.dff_state()) init.push_back(bit);
  for (bool bit : sb.dff_state()) init.push_back(bit);
  const std::size_t na = sa.dff_state().size();
  std::set<std::vector<bool>> visited;
  std::deque<std::vector<bool>> queue;
  visited.insert(init);
  queue.push_back(init);
  std::uint64_t input_count = 1ULL << ni;
  while (!queue.empty()) {
    if (elapsed() > opts.timeout_sec || visited.size() > opts.state_limit) {
      res.seconds = elapsed();
      res.peak = visited.size();
      res.failure = elapsed() > opts.timeout_sec
                        ? v::FailureKind::Timeout
                        : v::FailureKind::ResourceExhausted;
      return res;
    }
    std::vector<bool> state = queue.front();
    queue.pop_front();
    ++res.iterations;
    std::vector<bool> state_a(state.begin(),
                              state.begin() + static_cast<long>(na));
    std::vector<bool> state_b(state.begin() + static_cast<long>(na),
                              state.end());
    for (std::uint64_t in = 0; in < input_count; ++in) {
      std::vector<bool> bits = c::to_bits(in, static_cast<int>(ni));
      auto [oa, nexta] = sa.eval(bits, state_a);
      auto [ob, nextb] = sb.eval(bits, state_b);
      if (oa != ob) {
        res.completed = true;
        res.equivalent = false;
        res.seconds = elapsed();
        res.peak = visited.size();
        return res;
      }
      std::vector<bool> next = nexta;
      next.insert(next.end(), nextb.begin(), nextb.end());
      if (visited.insert(next).second) queue.push_back(next);
    }
  }
  res.completed = true;
  res.equivalent = true;
  res.seconds = elapsed();
  res.peak = visited.size();
  return res;
}

/// One side of all_ones_pair: `ni` inputs, a `bits`-bit register r with
/// r' = r XOR in (input i % ni drives bit i), and `hold` registers whose
/// next state is themselves (alternating inits), which widen the packed
/// state without adding reachable states.  The output is r's parity; the
/// faulty side XORs in AND(every input, r == all ones) or, with
/// `at_init`, AND(every input, r == 0).
c::GateNetlist all_ones_side(int ni, int bits, int hold, bool faulty,
                             bool at_init) {
  c::GateNetlist net;
  std::vector<c::LitId> in, r;
  for (int i = 0; i < ni; ++i) {
    in.push_back(net.add_input("in" + std::to_string(i)));
  }
  for (int i = 0; i < bits; ++i) {
    r.push_back(net.add_dff("r" + std::to_string(i), false));
  }
  for (int i = 0; i < hold; ++i) {
    c::LitId h = net.add_dff("h" + std::to_string(i), i % 2 == 1);
    net.set_dff_next(h, h);
  }
  c::LitId parity = r[0];
  c::LitId hit = at_init ? net.add_gate(c::GateOp::Not, r[0]) : r[0];
  for (std::size_t i = 0; i < r.size(); ++i) {
    c::LitId drive = in[i % in.size()];
    net.set_dff_next(r[i], net.add_gate(c::GateOp::Xor, r[i], drive));
    if (i == 0) continue;
    parity = net.add_gate(c::GateOp::Xor, parity, r[i]);
    c::LitId bit = at_init ? net.add_gate(c::GateOp::Not, r[i]) : r[i];
    hit = net.add_gate(c::GateOp::And, hit, bit);
  }
  for (c::LitId x : in) hit = net.add_gate(c::GateOp::And, hit, x);
  c::LitId out = faulty ? net.add_gate(c::GateOp::Xor, parity, hit) : parity;
  net.add_output("y", out);
  return net;
}

/// Outputs differ only on the all-ones input vector, from the state where
/// r is all ones (the last state the search dequeues; the mismatch lands
/// in the last lane of the last packet) or, with `at_init`, from the
/// initial state (every earlier lane's successor is recorded first).
Pair all_ones_pair(int ni, int bits, int hold_a, int hold_b,
                   bool at_init = false) {
  return {all_ones_side(ni, bits, hold_a, false, at_init),
          all_ones_side(ni, bits, hold_b, true, at_init)};
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

TEST(Sis, RefusesMoreThan24InputBits) {
  // 2 x 14 input bits = 2^28 input combinations per state: a capability
  // limit, reported before any search.
  Pair p = retimed_pair(14);
  v::VerifyOptions opts;
  opts.timeout_sec = 0.5;
  v::VerifyResult res = v::sis_fsm_check(p.a, p.b, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.failure, v::FailureKind::ResourceExhausted);
}

TEST(Sis, TimesOutInsideOneState) {
  // 2 x 12 input bits = 2^24 input vectors per state: the budget must hold
  // inside the first state, not only when the next one is dequeued.
  Pair p = retimed_pair(12);
  v::VerifyOptions opts;
  opts.timeout_sec = 0.5;
  auto t0 = std::chrono::steady_clock::now();
  v::VerifyResult res = v::sis_fsm_check(p.a, p.b, opts);
  std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.failure, v::FailureKind::Timeout);
  EXPECT_GT(res.seconds, opts.timeout_sec);
  EXPECT_LT(wall.count(), 1.5);
}

TEST(Sis, MatchesScalarReference) {
  struct Case {
    std::string name;
    Pair pair;
    std::size_t state_limit = 2'000'000;
  };
  std::vector<Case> cases;
  // fig2 pairs: 2 and 4 input bits (masked lanes), 6 (one full packet),
  // 8 and 10 (several packets per state).
  for (int n = 1; n <= 5; ++n) {
    cases.push_back({"fig2:" + std::to_string(n), retimed_pair(n)});
  }
  cases.push_back({"broken:3", broken_pair(3)});
  // Mismatch only on the all-ones input vector.  Hold registers put 69
  // or 70 flip-flops on one side (two words) and over 64 in the product.
  cases.push_back({"all_ones:1", all_ones_pair(1, 2, 0, 3)});
  cases.push_back({"all_ones:3", all_ones_pair(3, 3, 10, 0)});
  cases.push_back({"all_ones:6", all_ones_pair(6, 2, 40, 40)});
  cases.push_back({"all_ones:7", all_ones_pair(7, 3, 66, 5)});
  cases.push_back({"all_ones:9", all_ones_pair(9, 4, 3, 66)});
  cases.push_back({"all_ones_init:6", all_ones_pair(6, 6, 0, 0, true)});
  cases.push_back({"all_ones_init:8", all_ones_pair(8, 5, 66, 2, true)});
  Pair equal_wide{all_ones_side(9, 3, 66, false, false),
                  all_ones_side(9, 3, 70, false, false)};
  cases.push_back({"equal_wide", equal_wide});
  const std::uint64_t seed = tl::stimulus_seed();
  const tl::ConeEdit edits[] = {tl::ConeEdit::Equivalent,
                                tl::ConeEdit::EquivalentOpaque,
                                tl::ConeEdit::Different};
  const int inputs[] = {3, 6, 8};
  for (int k = 0; k < 9; ++k) {
    c::GateNetlist a = tl::random_netlist(
        seed + static_cast<std::uint64_t>(k), inputs[k % 3], 30, 5);
    c::GateNetlist b = tl::mutate_cone(a, 0, edits[k / 3]);
    cases.push_back({"random:" + std::to_string(k), {a, b}});
  }
  // state_limit stops must land on the same dequeue.
  cases.push_back({"limit:fig2:4", retimed_pair(4), 3});
  cases.push_back({"limit:all_ones:7", all_ones_pair(7, 3, 66, 5), 5});

  int nonequiv = 0, limited = 0;
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    v::VerifyOptions opts;
    opts.timeout_sec = 120.0;
    opts.state_limit = tc.state_limit;
    v::VerifyResult want = reference_sis(tc.pair.a, tc.pair.b, opts);
    v::VerifyResult got = v::sis_fsm_check(tc.pair.a, tc.pair.b, opts);
    ASSERT_TRUE(want.completed ||
                want.failure == v::FailureKind::ResourceExhausted);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.equivalent, want.equivalent);
    EXPECT_EQ(got.failure, want.failure);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.peak, want.peak);
    nonequiv += want.completed && !want.equivalent;
    limited += want.failure == v::FailureKind::ResourceExhausted;
  }
  // The corpus must exercise every outcome it claims to.
  EXPECT_GE(nonequiv, 11);
  EXPECT_EQ(limited, 2);
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
