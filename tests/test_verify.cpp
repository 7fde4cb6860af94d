// Tests for the post-synthesis verification baselines: all four engines
// must agree with each other and with bounded simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "testlib/gen.h"
#include "verify/batch_bdd.h"
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

/// The (original, retimed) pair a posthoc circuit spec names, built as
/// the service builds it: the HASH step's retimed netlist.
Pair spec_pair(const std::string& spec) {
  std::vector<int> p;
  std::stringstream ss(spec);
  std::string kind, field;
  std::getline(ss, kind, ':');
  while (std::getline(ss, field, ':')) p.push_back(std::stoi(field));
  c::Rtl rtl;
  h::Cut cut;
  if (kind == "fig2") {
    auto fig2 = eda::bench_gen::make_fig2(p[0]);
    rtl = fig2.rtl;
    cut = fig2.good_cut;
  } else if (kind == "fig2deep") {
    auto deep = eda::bench_gen::make_fig2_deep(p[0], p[1]);
    rtl = deep.rtl;
    cut.f_nodes = deep.inc_nodes;
  } else {
    eda::bench_gen::BenchCircuit bench;
    if (kind == "mult") {
      bench = eda::bench_gen::make_serial_multiplier(spec, p[0]);
    } else if (kind == "ctrl") {
      bench = eda::bench_gen::make_controller(spec, p[0], p[1]);
    } else {
      bench = eda::bench_gen::make_pipeline_alu(spec, p[0], p[1]);
    }
    rtl = bench.rtl;
    cut = bench.cut;
  }
  return {c::bit_blast(rtl), c::bit_blast(h::formal_retime(rtl, cut).retimed)};
}

/// One engine cell of the golden table: the verdict fields a variable
/// order must not move.
struct GoldenCell {
  const char* circuit;
  const char* engine;
  bool completed, equivalent;
  int iterations;
  v::FailureKind failure;
};

/// Runs every cell (a circuit's pair is built once for its run of cells)
/// under a budget no cell comes near, and compares the verdict fields.
void expect_golden(const std::vector<GoldenCell>& cells,
                   const std::function<Pair(const std::string&)>& pair_of) {
  std::string built;
  Pair p;
  for (const GoldenCell& cell : cells) {
    SCOPED_TRACE(std::string(cell.circuit) + " " + cell.engine);
    if (built != cell.circuit) {
      built = cell.circuit;
      p = pair_of(built);
    }
    v::VerifyOptions opts;
    opts.timeout_sec = 120.0;
    v::VerifyResult got = v::run_check(
        {&p.a, &p.b, *v::parse_engine(cell.engine), opts});
    EXPECT_EQ(got.completed, cell.completed);
    EXPECT_EQ(got.equivalent, cell.equivalent);
    EXPECT_EQ(got.iterations, cell.iterations);
    EXPECT_EQ(got.failure, cell.failure);
  }
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

// The golden table: the verdict fields a variable order must not move,
// for perfbench posthoc_check's 110 (circuit, engine) cells and for every
// Table II cell that completed at its 2 s budget under the index order
// (inputs, then all of A's registers, then all of B's).  It was recorded
// under that order, so a new order must reproduce it exactly: each image
// step is exact, so the iteration count depends on the reachable states
// alone, whatever the order.
constexpr v::FailureKind kNone = v::FailureKind::None;

TEST(Golden, PosthocCellsUnchanged) {
  const std::vector<GoldenCell> cells = {
      {"fig2:3", "eijk", true, true, 8, kNone},
      {"fig2:3", "eijk+", true, true, 8, kNone},
      {"fig2:4", "eijk", true, true, 16, kNone},
      {"fig2:4", "eijk+", true, true, 16, kNone},
      {"fig2:4", "smv", true, true, 16, kNone},
      {"fig2:4", "sis", true, true, 16, kNone},
      {"fig2:5", "eijk", true, true, 32, kNone},
      {"fig2:5", "eijk+", true, true, 32, kNone},
      {"fig2:5", "smv", true, true, 32, kNone},
      {"fig2:5", "sis", true, true, 32, kNone},
      {"fig2:6", "smv", true, true, 64, kNone},
      {"fig2deep:3:3", "eijk", true, true, 8, kNone},
      {"fig2deep:3:3", "eijk+", true, true, 8, kNone},
      {"fig2deep:3:5", "eijk", true, true, 8, kNone},
      {"fig2deep:3:5", "eijk+", true, true, 8, kNone},
      {"fig2deep:4:2", "eijk", true, true, 8, kNone},
      {"fig2deep:4:2", "eijk+", true, true, 8, kNone},
      {"fig2deep:4:2", "smv", true, true, 8, kNone},
      {"fig2deep:4:2", "sis", true, true, 8, kNone},
      {"fig2deep:4:3", "eijk", true, true, 16, kNone},
      {"fig2deep:4:3", "eijk+", true, true, 16, kNone},
      {"fig2deep:4:3", "smv", true, true, 16, kNone},
      {"fig2deep:4:3", "sis", true, true, 16, kNone},
      {"fig2deep:4:4", "eijk", true, true, 4, kNone},
      {"fig2deep:4:4", "eijk+", true, true, 4, kNone},
      {"fig2deep:4:4", "smv", true, true, 4, kNone},
      {"fig2deep:4:4", "sis", true, true, 4, kNone},
      {"fig2deep:4:5", "eijk", true, true, 16, kNone},
      {"fig2deep:4:5", "eijk+", true, true, 16, kNone},
      {"fig2deep:4:5", "smv", true, true, 16, kNone},
      {"fig2deep:4:5", "sis", true, true, 16, kNone},
      {"fig2deep:5:2", "eijk", true, true, 16, kNone},
      {"fig2deep:5:2", "eijk+", true, true, 16, kNone},
      {"fig2deep:5:2", "smv", true, true, 16, kNone},
      {"fig2deep:5:2", "sis", true, true, 16, kNone},
      {"fig2deep:5:3", "eijk", true, true, 32, kNone},
      {"fig2deep:5:3", "eijk+", true, true, 32, kNone},
      {"fig2deep:5:3", "smv", true, true, 32, kNone},
      {"fig2deep:5:4", "eijk", true, true, 8, kNone},
      {"fig2deep:5:4", "eijk+", true, true, 8, kNone},
      {"fig2deep:5:4", "smv", true, true, 8, kNone},
      {"fig2deep:5:4", "sis", true, true, 8, kNone},
      {"fig2deep:5:5", "eijk", true, true, 32, kNone},
      {"fig2deep:5:5", "eijk+", true, true, 32, kNone},
      {"fig2deep:5:5", "smv", true, true, 32, kNone},
      {"fig2deep:6:2", "smv", true, true, 32, kNone},
      {"fig2deep:6:3", "smv", true, true, 64, kNone},
      {"fig2deep:6:4", "eijk", true, true, 16, kNone},
      {"fig2deep:6:4", "eijk+", true, true, 16, kNone},
      {"fig2deep:6:4", "smv", true, true, 16, kNone},
      {"fig2deep:6:5", "smv", true, true, 64, kNone},
      {"mult:3", "eijk", true, true, 2, kNone},
      {"mult:3", "eijk+", true, true, 2, kNone},
      {"mult:3", "smv", true, true, 2, kNone},
      {"mult:4", "eijk", true, true, 2, kNone},
      {"mult:4", "eijk+", true, true, 2, kNone},
      {"mult:4", "smv", true, true, 2, kNone},
      {"mult:5", "eijk", true, true, 2, kNone},
      {"mult:5", "sis", true, true, 32, kNone},
      {"mult:6", "sis", true, true, 64, kNone},
      {"ctrl:1:5", "eijk", true, true, 34, kNone},
      {"ctrl:1:5", "eijk+", true, true, 34, kNone},
      {"ctrl:1:5", "smv", true, true, 34, kNone},
      {"ctrl:1:6", "eijk", true, true, 66, kNone},
      {"ctrl:1:6", "eijk+", true, true, 66, kNone},
      {"ctrl:1:6", "smv", true, true, 66, kNone},
      {"ctrl:2:3", "eijk", true, true, 20, kNone},
      {"ctrl:2:3", "eijk+", true, true, 20, kNone},
      {"ctrl:2:3", "smv", true, true, 20, kNone},
      {"ctrl:2:5", "eijk", true, true, 68, kNone},
      {"ctrl:2:5", "eijk+", true, true, 68, kNone},
      {"ctrl:2:5", "smv", true, true, 68, kNone},
      {"ctrl:2:5", "sis", true, true, 68, kNone},
      {"ctrl:3:2", "eijk", true, true, 24, kNone},
      {"ctrl:3:2", "eijk+", true, true, 24, kNone},
      {"ctrl:3:2", "smv", true, true, 24, kNone},
      {"ctrl:3:4", "eijk", true, true, 72, kNone},
      {"ctrl:3:4", "smv", true, true, 72, kNone},
      {"ctrl:3:4", "sis", true, true, 72, kNone},
      {"ctrl:4:2", "eijk", true, true, 48, kNone},
      {"ctrl:4:2", "smv", true, true, 48, kNone},
      {"ctrl:4:2", "sis", true, true, 48, kNone},
      {"ctrl:4:4", "sis", true, true, 144, kNone},
      {"ctrl:5:2", "sis", true, true, 96, kNone},
      {"ctrl:5:3", "sis", true, true, 160, kNone},
      {"pipe:3:2", "eijk", true, true, 3, kNone},
      {"pipe:3:2", "eijk+", true, true, 3, kNone},
      {"pipe:3:2", "smv", true, true, 3, kNone},
      {"pipe:3:2", "sis", true, true, 25, kNone},
      {"pipe:3:4", "eijk", true, true, 4, kNone},
      {"pipe:3:4", "eijk+", true, true, 4, kNone},
      {"pipe:3:4", "smv", true, true, 4, kNone},
      {"pipe:3:4", "sis", true, true, 57, kNone},
      {"pipe:4:2", "eijk", true, true, 3, kNone},
      {"pipe:4:2", "eijk+", true, true, 3, kNone},
      {"pipe:4:2", "smv", true, true, 3, kNone},
      {"pipe:4:3", "eijk", true, true, 4, kNone},
      {"pipe:4:3", "eijk+", true, true, 4, kNone},
      {"pipe:4:3", "smv", true, true, 4, kNone},
      {"pipe:4:4", "eijk", true, true, 4, kNone},
      {"pipe:4:4", "eijk+", true, true, 4, kNone},
      {"pipe:4:4", "smv", true, true, 4, kNone},
      {"pipe:5:1", "eijk", true, true, 2, kNone},
      {"pipe:5:1", "eijk+", true, true, 2, kNone},
      {"pipe:5:1", "smv", true, true, 2, kNone},
      {"pipe:5:2", "eijk", true, true, 3, kNone},
      {"pipe:5:2", "smv", true, true, 3, kNone},
      {"pipe:6:1", "eijk", true, true, 2, kNone},
      {"pipe:6:1", "smv", true, true, 2, kNone},
      {"pipe:6:2", "eijk", true, true, 3, kNone},
  };
  ASSERT_EQ(cells.size(), 110u);
  expect_golden(cells, spec_pair);
}

Pair iwls_pair(const std::string& name) {
  std::optional<eda::bench_gen::BenchCircuit> bench =
      eda::bench_gen::find_iwls_benchmark(name);
  return {c::bit_blast(bench->rtl),
          c::bit_blast(h::formal_retime(bench->rtl, bench->cut).retimed)};
}

TEST(Golden, TableTwoCellsUnchanged) {
  expect_golden(
      {
          {"s344", "eijk", true, true, 2, kNone},
          {"s344", "eijk+", true, true, 2, kNone},
          {"s344", "sis", true, true, 16, kNone},
          {"s349", "eijk", true, true, 2, kNone},
          {"s349", "eijk+", true, true, 2, kNone},
          {"s349", "sis", true, true, 16, kNone},
          {"mult8", "eijk", true, true, 2, kNone},
          {"mult8", "sis", true, true, 256, kNone},
          {"s382", "eijk", true, true, 72, kNone},
          {"s382", "eijk+", true, true, 72, kNone},
          {"s382", "sis", true, true, 72, kNone},
          {"s526", "eijk", true, true, 272, kNone},
          {"s526", "eijk+", true, true, 272, kNone},
          {"s526", "sis", true, true, 272, kNone},
          {"s820", "eijk", true, true, 1056, kNone},
          {"s820", "eijk+", true, true, 1056, kNone},
          {"s820", "sis", true, true, 1056, kNone},
          {"s641", "eijk", true, true, 4, kNone},
          {"s713", "eijk", true, true, 5, kNone},
      },
      iwls_pair);
}

TEST(Golden, EijkPlusCompletesWhatTheIndexOrderCouldNot) {
  // Under the index order these ran out of nodes; under the structural
  // order they complete, with the iteration counts Eijk reports.
  expect_golden(
      {
          {"mult8", "eijk+", true, true, 2, kNone},
          {"s641", "eijk+", true, true, 4, kNone},
          {"s713", "eijk+", true, true, 5, kNone},
      },
      iwls_pair);
}

TEST(Budget, BddEnginesStopAtTheirBudget) {
  // s1238 is past every BDD engine's reach at any budget this test can
  // afford: each must give up at its budget, inside the product build or
  // an image step if need be, and charge the time it spent.
  Pair p = iwls_pair("s1238");
  for (v::Engine engine :
       {v::Engine::Eijk, v::Engine::EijkPlus, v::Engine::Smv}) {
    SCOPED_TRACE(v::engine_name(engine));
    v::VerifyOptions opts;
    opts.timeout_sec = 0.3;
    auto t0 = std::chrono::steady_clock::now();
    v::VerifyResult res = check(engine, p.a, p.b, opts);
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.failure, v::FailureKind::Timeout);
    EXPECT_GE(res.seconds, opts.timeout_sec);
    EXPECT_LT(wall.count(), 1.0);
  }
}

namespace {

/// Every variable of `L` exactly once, present and next adjacent, each
/// role and rename entry where the layout says.
void expect_layout_invariants(const v::ProductLayout& L, std::size_t ni,
                              std::size_t na, std::size_t nb) {
  ASSERT_EQ(L.input.size(), ni);
  ASSERT_EQ(L.state[0].size(), na);
  ASSERT_EQ(L.state[1].size(), nb);
  ASSERT_EQ(L.total(), static_cast<int>(ni + 2 * (na + nb)));
  ASSERT_EQ(L.role.size(), L.next_to_present.size());
  std::vector<int> seen;
  for (std::size_t j = 0; j < ni; ++j) {
    const int x = L.input_var(static_cast<int>(j));
    seen.push_back(x);
    EXPECT_EQ(L.role[static_cast<std::size_t>(x)], v::VarRole::Input);
    EXPECT_EQ(L.next_to_present[static_cast<std::size_t>(x)], x);
  }
  for (v::Side side : {v::Side::A, v::Side::B}) {
    const bool a = side == v::Side::A;
    const std::size_t n = a ? na : nb;
    for (std::size_t k = 0; k < n; ++k) {
      const int s = L.state_var(side, static_cast<int>(k));
      const int x = L.next_var(side, static_cast<int>(k));
      EXPECT_EQ(x, s + 1);
      seen.push_back(s);
      seen.push_back(x);
      EXPECT_EQ(L.role[static_cast<std::size_t>(s)],
                a ? v::VarRole::AState : v::VarRole::BState);
      EXPECT_EQ(L.role[static_cast<std::size_t>(x)],
                a ? v::VarRole::ANext : v::VarRole::BNext);
      EXPECT_EQ(L.next_to_present[static_cast<std::size_t>(s)], s);
      EXPECT_EQ(L.next_to_present[static_cast<std::size_t>(x)], s);
    }
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], static_cast<int>(i)) << "not a permutation";
  }
}

bool same_layout(const v::ProductLayout& x, const v::ProductLayout& y) {
  return x.input == y.input && x.state[0] == y.state[0] &&
         x.state[1] == y.state[1] && x.role == y.role &&
         x.next_to_present == y.next_to_present;
}

}  // namespace

TEST(ProductLayout, WalksOutputsThenNextStateFunctions) {
  // A: y = i2 & ra1, ra1' = ra0, ra0' = i0 ^ ra0.  B: y = i2 & rb0,
  // rb0' = i1.  Outputs first (i2, ra1, rb0), then next-state functions
  // alternating A and B (ra1's finds ra0, rb0's finds i1, ra0's finds i0).
  c::GateNetlist a, b;
  std::vector<c::LitId> ia, ib;
  for (int j = 0; j < 3; ++j) {
    ia.push_back(a.add_input("i" + std::to_string(j)));
    ib.push_back(b.add_input("i" + std::to_string(j)));
  }
  c::LitId ra0 = a.add_dff("ra0", false), ra1 = a.add_dff("ra1", true);
  a.add_output("y", a.add_gate(c::GateOp::And, ia[2], ra1));
  a.set_dff_next(ra1, ra0);
  a.set_dff_next(ra0, a.add_gate(c::GateOp::Xor, ia[0], ra0));
  c::LitId rb0 = b.add_dff("rb0", false);
  b.add_output("y", b.add_gate(c::GateOp::And, ib[2], rb0));
  b.set_dff_next(rb0, ib[1]);

  v::ProductLayout L = v::product_layout({{&a, &b}});
  expect_layout_invariants(L, 3, 2, 1);
  EXPECT_EQ(L.input, (std::vector<int>{8, 7, 0}));
  EXPECT_EQ(L.state[0], (std::vector<int>{5, 1}));
  EXPECT_EQ(L.state[1], (std::vector<int>{3}));
  EXPECT_TRUE(same_layout(L, v::product_layout({{&a, &b}})));
}

TEST(ProductLayout, InvariantsAndDeterminismOnRetimedPairs) {
  for (const char* spec : {"fig2:4", "fig2deep:4:3", "ctrl:2:5", "pipe:4:2",
                           "mult:4"}) {
    SCOPED_TRACE(spec);
    Pair p = spec_pair(spec);
    v::ProductLayout L = v::product_layout({{&p.a, &p.b}});
    expect_layout_invariants(L, p.a.inputs().size(),
                             static_cast<std::size_t>(p.a.ff_count()),
                             static_cast<std::size_t>(p.b.ff_count()));
    EXPECT_EQ(L.total(), v::product_var_count(p.a, p.b));
    EXPECT_TRUE(same_layout(L, v::product_layout({{&p.a, &p.b}})));
  }
  // A batch covers its largest input and register counts.
  Pair small = spec_pair("fig2:2"), big = spec_pair("ctrl:2:5");
  v::ProductLayout L =
      v::product_layout({{&small.a, &small.b}, {&big.a, &big.b}});
  expect_layout_invariants(
      L, std::max(small.a.inputs().size(), big.a.inputs().size()),
      static_cast<std::size_t>(std::max(small.a.ff_count(), big.a.ff_count())),
      static_cast<std::size_t>(std::max(small.b.ff_count(), big.b.ff_count())));
}

TEST(ProductLayout, IdenticalConesInOneBatchShareTheirNodes) {
  // Two copies of one pair (distinct objects) in one batch: the second
  // product is the first, node for node.
  Pair p = spec_pair("fig2deep:4:3");
  Pair q = spec_pair("fig2deep:4:3");
  v::ProductLayout L = v::product_layout({{&p.a, &p.b}, {&q.a, &q.b}});
  EXPECT_TRUE(same_layout(L, v::product_layout({{&p.a, &p.b}})));
  eda::bdd::BddManager mgr(L.total());
  v::Product first = v::build_product(mgr, L, p.a, p.b);
  const std::size_t nodes = mgr.node_table_size();
  v::Product second = v::build_product(mgr, L, q.a, q.b);
  EXPECT_EQ(mgr.node_table_size(), nodes);
  EXPECT_EQ(second.miscompare, first.miscompare);
  EXPECT_EQ(second.a.next_fn, first.a.next_fn);
  EXPECT_EQ(second.b.next_fn, first.b.next_fn);
  EXPECT_EQ(second.quantify, first.quantify);
}

TEST(ProductLayout, DeepChainIsWalkedWithoutRecursion) {
  // 200,000 inverters between the input and the output: a recursive walk
  // would overflow the call stack long before the end.
  c::GateNetlist a = tl::inverter_chain(200000);
  c::GateNetlist b = tl::inverter_chain(200002);
  v::ProductLayout L = v::product_layout({{&a, &b}});
  expect_layout_invariants(L, 1, 0, 0);
  v::VerifyResult res = check(v::Engine::Eijk, a, b);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.equivalent);
}

namespace {

bool same_verdict(const v::VerifyResult& x, const v::VerifyResult& y) {
  return x.completed == y.completed && x.equivalent == y.equivalent &&
         x.iterations == y.iterations && x.failure == y.failure;
}

}  // namespace

TEST(BatchManager, FourThreadsAtOnceMatchSerial) {
  // Each thread leases its own manager and resets it between calls; the
  // calls interleave batches of one with whole batches, in a different
  // order on each thread.
  std::vector<Pair> pairs;
  for (const char* spec : {"fig2:3", "fig2deep:4:2", "ctrl:2:3", "pipe:4:2",
                           "mult:3"}) {
    pairs.push_back(spec_pair(spec));
  }
  std::vector<v::CheckJob> jobs;
  for (const Pair& p : pairs) {
    for (v::Engine e : {v::Engine::Eijk, v::Engine::EijkPlus, v::Engine::Smv}) {
      jobs.push_back({&p.a, &p.b, e, {}});
    }
  }
  std::vector<v::VerifyResult> serial;
  for (const v::CheckJob& job : jobs) serial.push_back(v::run_check(job));

  const std::size_t n = jobs.size();
  std::vector<std::vector<v::VerifyResult>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (std::size_t k = 0; k < n; ++k) {
          got[t].push_back(v::run_check(jobs[(k + 3 * t) % n]));
        }
        std::vector<v::CheckJob> batch;
        for (std::size_t k = 0; k < n; ++k) batch.push_back(jobs[(k + t) % n]);
        for (const v::VerifyResult& r : v::check_batch(batch)) {
          got[t].push_back(r);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(got[t].size(), 4 * n);
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      const std::size_t k = i % (2 * n);
      const std::size_t job = k < n ? (k + 3 * t) % n : (k - n + t) % n;
      EXPECT_TRUE(same_verdict(got[t][i], serial[job]))
          << "thread " << t << ", call " << i << ", job " << job;
    }
  }
}

TEST(BatchManager, TenCallsOnOneThreadConstructOneManager) {
  // check_batch leases its thread's one manager and resets it between
  // calls.  A fresh thread has none, so its first call constructs one and
  // the next nine reuse it; a manager built per call would make ten.
  const Pair p = spec_pair("fig2:3");
  const std::vector<v::CheckJob> jobs{{&p.a, &p.b, v::Engine::Eijk, {}},
                                      {&p.a, &p.b, v::Engine::Smv, {}}};
  std::uint64_t constructed = 0;
  int equivalent = 0;
  std::thread worker([&] {
    const std::uint64_t before = eda::bdd::BddManager::managers_constructed();
    for (int call = 0; call < 10; ++call) {
      for (const v::VerifyResult& r : v::check_batch(jobs)) {
        if (r.completed && r.equivalent) ++equivalent;
      }
    }
    constructed = eda::bdd::BddManager::managers_constructed() - before;
  });
  worker.join();
  EXPECT_EQ(equivalent, 20);
  EXPECT_EQ(constructed, 1u);
}

TEST(BatchManager, StarvedPoolReRunsMatchRunningAlone) {
  // Twelve distinct cones, each with a node budget that just fits it
  // alone.  The batch's pool is capped at 8x the largest budget, which
  // the twelve together overflow, so the tasks it starves are re-run as
  // batches of one; every verdict must be the one it gets alone.
  std::vector<Pair> pairs;
  for (const char* spec :
       {"fig2:3", "fig2:4", "fig2deep:3:3", "fig2deep:4:2", "fig2deep:4:3",
        "fig2deep:5:2", "mult:3", "mult:4", "ctrl:1:5", "ctrl:2:3",
        "ctrl:3:2", "pipe:4:2"}) {
    pairs.push_back(spec_pair(spec));
  }
  std::vector<v::CheckJob> jobs;
  std::size_t limit = 0;
  for (const Pair& p : pairs) {
    jobs.push_back({&p.a, &p.b, v::Engine::Eijk, {}});
    limit = std::max(limit, v::run_check(jobs.back()).peak);
  }
  // Unbounded, the batch creates the same nodes in the same order as the
  // bounded one until the bounded pool runs out, so this shows it does.
  std::size_t unbounded = 0;
  for (const v::VerifyResult& r : v::check_batch(jobs)) {
    unbounded = std::max(unbounded, r.peak);
  }
  ASSERT_GT(unbounded, 8 * limit);

  for (v::CheckJob& job : jobs) job.opts.node_limit = limit;
  const std::vector<v::VerifyResult> batch = v::check_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const v::VerifyResult alone = v::run_check(jobs[i]);
    ASSERT_TRUE(alone.completed) << i;
    EXPECT_TRUE(same_verdict(batch[i], alone)) << "task " << i;
    EXPECT_LE(batch[i].peak, 8 * limit) << "task " << i;
  }
}
