// Tests for the pair/num/numeral/automata theories and the central
// RETIMING_THM proof.

#include <gtest/gtest.h>

#include "kernel/printer.h"
#include "kernel/signature.h"
#include "logic/rewrite.h"
#include "theories/automata_theory.h"
#include "theories/num_theory.h"
#include "theories/numeral.h"
#include "theories/pair_theory.h"
#include "theories/retiming_thm.h"

namespace k = eda::kernel;
namespace l = eda::logic;
namespace thy = eda::thy;
using k::Term;
using k::Thm;
using k::Type;

namespace {

struct Init {
  Init() {
    thy::init_pair();
    thy::init_num();
    thy::init_numeral();
    thy::init_automata();
  }
};
const Init kInit;

Term nv(const std::string& n) { return Term::var(n, k::num_ty()); }

}  // namespace

TEST(Pair, BuildersAndDestructors) {
  Term x = nv("x"), y = nv("y");
  Term p = thy::mk_pair(x, y);
  EXPECT_TRUE(thy::is_pair(p));
  auto [a, b] = thy::dest_pair(p);
  EXPECT_EQ(a, x);
  EXPECT_EQ(b, y);
  EXPECT_EQ(p.type(), k::prod_ty(k::num_ty(), k::num_ty()));
  EXPECT_EQ(thy::mk_fst(p).type(), k::num_ty());
}

TEST(Pair, TupleNesting) {
  Term x = nv("x"), y = nv("y"), z = nv("z");
  Term t = thy::mk_tuple({x, y, z});
  auto [a, rest] = thy::dest_pair(t);
  EXPECT_EQ(a, x);
  auto [b, c] = thy::dest_pair(rest);
  EXPECT_EQ(b, y);
  EXPECT_EQ(c, z);
  EXPECT_EQ(thy::mk_tuple({x}), x);
}

TEST(Pair, ProjectionRewrites) {
  Term x = nv("x"), y = nv("y");
  Thm th = l::rewr_conv(thy::fst_pair())(thy::mk_fst(thy::mk_pair(x, y)));
  EXPECT_EQ(k::eq_rhs(th.concl()), x);
  Thm th2 = l::rewr_conv(thy::snd_pair())(thy::mk_snd(thy::mk_pair(x, y)));
  EXPECT_EQ(k::eq_rhs(th2.concl()), y);
  EXPECT_TRUE(th.is_pure());
}

TEST(Num, InductionDerivesAddZeroRight) {
  Thm th = thy::add_zero_right();
  EXPECT_TRUE(th.hyps().empty());
  EXPECT_TRUE(th.is_pure());
  // |- !n. n + _0 = n : spec at SUC _0 gives SUC _0 + _0 = SUC _0.
  Term one = thy::mk_suc(thy::zero_tm());
  Thm at_one = l::spec(one, th);
  EXPECT_EQ(at_one.concl(),
            k::mk_eq(thy::mk_arith("+", one, thy::zero_tm()), one));
}

TEST(Num, PrimRecAxioms) {
  Thm pr0 = thy::prim_rec_0();
  EXPECT_TRUE(l::is_forall(pr0.concl()));
  Thm prs = thy::prim_rec_suc();
  EXPECT_TRUE(l::is_forall(prs.concl()));
}

TEST(Numeral, RoundTrip) {
  for (std::uint64_t n : {0ULL, 1ULL, 2ULL, 5ULL, 255ULL, 1000000007ULL}) {
    Term t = thy::mk_numeral(n);
    auto back = thy::dest_numeral(t);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, n);
  }
}

TEST(Numeral, PrinterShowsDecimal) {
  EXPECT_EQ(eda::kernel::pretty(thy::mk_numeral(42)), "42");
}

TEST(Numeral, GroundEval) {
  Term t = thy::mk_arith("+", thy::mk_numeral(2), thy::mk_numeral(3));
  auto v = thy::eval_ground_num(t);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5u);
  Term m = thy::mk_arith(
      "MOD", thy::mk_arith("+", thy::mk_numeral(7), thy::mk_numeral(1)),
      thy::mk_arith("EXP", thy::mk_numeral(2), thy::mk_numeral(3)));
  EXPECT_EQ(*thy::eval_ground_num(m), 0u);
  // Non-ground fails.
  EXPECT_FALSE(thy::eval_ground_num(nv("x")).has_value());
}

TEST(Numeral, OverflowingArithmeticDeclines) {
  // Values past 64 bits have no numeral here: the evaluator declines them
  // instead of wrapping, so the oracle never admits |- (2^64 - 1) + 1 = 0
  // or |- 2^61 * 8 = 0.
  Term max_plus_one = thy::mk_arith("+", thy::mk_numeral(UINT64_MAX),
                                    thy::mk_numeral(1));
  Term wide_product = thy::mk_arith("*", thy::mk_numeral(1ULL << 61),
                                    thy::mk_numeral(8));
  Term max_suc = thy::mk_suc(thy::mk_numeral(UINT64_MAX));
  for (const Term& t : {max_plus_one, wide_product, max_suc}) {
    EXPECT_FALSE(thy::eval_ground_num(t).has_value()) << t.to_string();
    EXPECT_THROW(thy::num_compute_conv(t), l::ConvError) << t.to_string();
  }
  // A parent that brings the value back into range evaluates exactly.
  Term mod = thy::mk_arith(
      "MOD", wide_product,
      thy::mk_arith("EXP", thy::mk_numeral(2), thy::mk_numeral(62)));
  ASSERT_TRUE(thy::eval_ground_num(mod).has_value());
  EXPECT_EQ(*thy::eval_ground_num(mod), 0u);
  EXPECT_EQ(k::eq_rhs(thy::num_compute_conv(mod).concl()),
            thy::mk_numeral(0));
  // Predicates compare exact values: 2^61 * 8 is not 0.
  Term pred = k::mk_eq(wide_product, thy::mk_numeral(0));
  ASSERT_TRUE(thy::eval_ground_bool(pred).has_value());
  EXPECT_FALSE(*thy::eval_ground_bool(pred));
  EXPECT_EQ(k::eq_rhs(thy::num_compute_conv(pred).concl()),
            l::falsity_tm());
  // 2^64 - 1 is the largest value that still fits.
  Term max = thy::mk_arith("+", thy::mk_numeral(UINT64_MAX - 1),
                           thy::mk_numeral(1));
  ASSERT_TRUE(thy::eval_ground_num(max).has_value());
  EXPECT_EQ(*thy::eval_ground_num(max), UINT64_MAX);
}

TEST(Numeral, ExpBySquaring) {
  // EXP takes O(log b) steps: these would loop 2^62 times one by one.
  auto exp = [](std::uint64_t a, std::uint64_t b) {
    return thy::eval_ground_num(
        thy::mk_arith("EXP", thy::mk_numeral(a), thy::mk_numeral(b)));
  };
  const std::uint64_t huge = 1ULL << 62;
  ASSERT_TRUE(exp(0, huge).has_value());
  EXPECT_EQ(*exp(0, huge), 0u);
  ASSERT_TRUE(exp(1, huge).has_value());
  EXPECT_EQ(*exp(1, huge), 1u);
  EXPECT_EQ(*exp(huge, 0), 1u);
  EXPECT_EQ(*exp(2, 63), 1ULL << 63);
  EXPECT_EQ(*exp(3, 40), 12157665459056928801ULL);
  EXPECT_FALSE(exp(2, 64).has_value());
  EXPECT_FALSE(exp(2, huge).has_value());
}

TEST(Numeral, ChainsPast64BitsHaveNoValue) {
  // NUMERAL (BIT1 (BIT1 ... _0)) with 65 BIT1s is 2^65 - 1.
  Type nn = k::fun_ty(k::num_ty(), k::num_ty());
  Term bits = Term::constant("_0", k::num_ty());
  for (int i = 0; i < 65; ++i) {
    bits = Term::comb(Term::constant("BIT1", nn), bits);
  }
  Term numeral = Term::comb(Term::constant("NUMERAL", nn), bits);
  Term mod = thy::mk_arith("MOD", numeral, thy::mk_numeral(2));
  EXPECT_FALSE(thy::dest_numeral(numeral).has_value());
  EXPECT_FALSE(thy::eval_ground_num(numeral).has_value());
  EXPECT_FALSE(thy::eval_ground_num(mod).has_value());
}

TEST(Numeral, PrinterShowsChainsPast64BitsAsStructure) {
  // 64 BIT1s print as 2^64 - 1; a 65th has no 64-bit value, so the printer
  // shows the chain rather than a wrapped number.
  Type nn = k::fun_ty(k::num_ty(), k::num_ty());
  Term bits = Term::constant("_0", k::num_ty());
  for (int i = 0; i < 64; ++i) {
    bits = Term::comb(Term::constant("BIT1", nn), bits);
  }
  const Term numeral = Term::constant("NUMERAL", nn);
  EXPECT_EQ(k::pretty(Term::comb(numeral, bits)), "18446744073709551615");
  bits = Term::comb(Term::constant("BIT1", nn), bits);
  const std::string past = k::pretty(Term::comb(numeral, bits));
  EXPECT_EQ(past.find("18446744073709551615"), std::string::npos) << past;
  EXPECT_NE(past.find("NUMERAL"), std::string::npos) << past;
  EXPECT_NE(past.find("BIT1"), std::string::npos) << past;
}

TEST(Numeral, ComputeOracleTagged) {
  Term t = thy::mk_arith("*", thy::mk_numeral(6), thy::mk_numeral(7));
  Thm th = thy::num_compute_conv(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), thy::mk_numeral(42));
  EXPECT_FALSE(th.is_pure());
  EXPECT_EQ(th.oracles().count(thy::kNumComputeTag), 1u);
}

TEST(Numeral, ComputePredicates) {
  Term t = k::mk_eq(thy::mk_numeral(4), thy::mk_numeral(4));
  Thm th = thy::num_compute_conv(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), l::truth_tm());
  Term t2 = thy::mk_arith("<", thy::mk_numeral(4), thy::mk_numeral(3));
  Thm th2 = thy::num_compute_conv(t2);
  EXPECT_EQ(k::eq_rhs(th2.concl()), l::falsity_tm());
}

namespace {

// A tiny concrete transition function h : (num # num) -> (num # num),
// h (i, s) = (s, i):  output the register, store the input.
Term tiny_h() {
  Type nn = k::prod_ty(k::num_ty(), k::num_ty());
  Term p = Term::var("p", nn);
  return Term::abs(p, thy::mk_pair(thy::mk_snd(p), thy::mk_fst(p)));
}

}  // namespace

TEST(Automata, StateTheorems) {
  Thm s0 = thy::state_0();
  EXPECT_TRUE(s0.hyps().empty());
  EXPECT_TRUE(s0.is_pure());
  Thm ss = thy::state_suc();
  EXPECT_TRUE(ss.is_pure());
  Thm ae = thy::automaton_expand();
  EXPECT_TRUE(ae.is_pure());
}

TEST(Automata, State0Instantiates) {
  Term h = tiny_h();
  Term q = thy::mk_numeral(7);
  Term i = Term::var("i", k::fun_ty(k::num_ty(), k::num_ty()));
  Thm inst = l::pspec_list({h, q, i}, thy::state_0());
  EXPECT_EQ(k::eq_rhs(inst.concl()), q);
  EXPECT_EQ(k::eq_lhs(inst.concl()),
            thy::mk_state(h, q, i, thy::zero_tm()));
}

TEST(Automata, MkAutomatonTypeChecks) {
  Term h = tiny_h();
  Term q = nv("q");
  Term i = Term::var("i", k::fun_ty(k::num_ty(), k::num_ty()));
  Term t = nv("t");
  Term a = thy::mk_automaton(h, q, i, t);
  EXPECT_EQ(a.type(), k::num_ty());
  // A non-pair-shaped h is rejected.
  Term bad_h = Term::var("h", k::fun_ty(k::num_ty(), k::num_ty()));
  EXPECT_THROW(thy::mk_automaton(bad_h, q, i, t), k::KernelError);
}

TEST(Automata, MismatchedStateTypesRejected) {
  // h : (num # num) -> (num # (num # num)) — the paper's false-cut failure
  // mode: left and right state types differ, so no automaton term exists.
  Type nn = k::num_ty();
  Type bad = k::fun_ty(k::prod_ty(nn, nn),
                       k::prod_ty(nn, k::prod_ty(nn, nn)));
  Term h = Term::var("h", bad);
  EXPECT_THROW(thy::mk_automaton(h, nv("q"),
                                 Term::var("i", k::fun_ty(nn, nn)), nv("t")),
               k::KernelError);
}

TEST(Retiming, TheoremProvedAndPure) {
  Thm th = thy::retiming_thm();
  EXPECT_TRUE(th.hyps().empty());
  // The central claim of the reproduction: the universal retiming theorem
  // is derived purely from the rules and the documented axiom base — no
  // compute oracle involved.
  EXPECT_TRUE(th.is_pure());
  // Shape: !f g q i t. AUTOMATON h1 q i t = AUTOMATON h2 (f q) i t.
  auto [vars, body] = l::strip_forall(th.concl());
  ASSERT_EQ(vars.size(), 5u);
  EXPECT_TRUE(k::is_eq(body));
}

TEST(Retiming, CachedOnSecondCall) {
  Thm a = thy::retiming_thm();
  Thm b = thy::retiming_thm();
  EXPECT_EQ(a.concl(), b.concl());
}

TEST(Retiming, H1H2TypeDiscipline) {
  // f : num -> num#num (duplicate register), g consumes (input # num#num).
  Type n = k::num_ty();
  Term f = Term::var("f", k::fun_ty(n, k::prod_ty(n, n)));
  Term g = Term::var(
      "g", k::fun_ty(k::prod_ty(n, k::prod_ty(n, n)), k::prod_ty(n, n)));
  Term h1 = thy::mk_h1(f, g);
  Term h2 = thy::mk_h2(f, g);
  // h1 : (num # num) -> (num # num);  h2 : (num # (num#num)) -> same state.
  EXPECT_EQ(k::dom_ty(h1.type()), k::prod_ty(n, n));
  EXPECT_EQ(k::dom_ty(h2.type()), k::prod_ty(n, k::prod_ty(n, n)));
  // Wrong pairing is rejected.
  Term g_bad = Term::var("g", k::fun_ty(k::prod_ty(n, n), k::prod_ty(n, n)));
  EXPECT_THROW(thy::mk_h1(f, g_bad), k::KernelError);
}

TEST(Retiming, InstantiatesByMatching) {
  // Instantiate the universal theorem with concrete f and g, as the
  // synthesis procedure does (paper, fig. 3).
  Type n = k::num_ty();
  Term f = Term::var("f0", k::fun_ty(n, n));
  Term g = Term::var("g0", k::fun_ty(k::prod_ty(n, n), k::prod_ty(n, n)));
  Term q = Term::var("q0", n);
  Term i = Term::var("i0", k::fun_ty(k::num_ty(), n));
  Term t = nv("t0");
  Thm inst = l::pspec_list({f, g, q, i, t}, thy::retiming_thm());
  EXPECT_TRUE(k::is_eq(inst.concl()));
  EXPECT_TRUE(inst.is_pure());
  // Left side is AUTOMATON h1 q i t for h1 built from f, g.
  Term lhs = k::eq_lhs(inst.concl());
  auto [head, args] = k::strip_comb(lhs);
  EXPECT_EQ(head.name(), "AUTOMATON");
  ASSERT_EQ(args.size(), 4u);
  EXPECT_EQ(args[0], thy::mk_h1(f, g));
  EXPECT_EQ(args[1], q);
}
