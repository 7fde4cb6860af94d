// Tests for the derived logic layer: boolean connectives, derived rules,
// conversions, matching and rewriting.

#include <gtest/gtest.h>

#include "kernel/printer.h"
#include "logic/bool_thms.h"
#include "logic/conv.h"
#include "logic/match.h"
#include "logic/rewrite.h"

namespace k = eda::kernel;
namespace l = eda::logic;
using k::Term;
using k::Thm;

namespace {

Term bv(const std::string& n) { return Term::var(n, k::bool_ty()); }

struct BoolInit {
  BoolInit() { l::init_bool(); }
};
const BoolInit kInit;

}  // namespace

TEST(Bool, Truth) {
  Thm t = l::truth();
  EXPECT_TRUE(t.hyps().empty());
  EXPECT_EQ(t.concl(), l::truth_tm());
  EXPECT_TRUE(t.is_pure());
}

TEST(Bool, EqtIntroElimRoundTrip) {
  Term p = bv("p");
  Thm asm_p = Thm::assume(p);
  Thm eq = l::eqt_intro(asm_p);
  EXPECT_EQ(eq.concl(), k::mk_eq(p, l::truth_tm()));
  Thm back = l::eqt_elim(eq);
  EXPECT_EQ(back.concl(), p);
}

TEST(Bool, Sym) {
  Term x = bv("x"), y = bv("y");
  Thm th = l::sym(Thm::assume(k::mk_eq(x, y)));
  EXPECT_EQ(th.concl(), k::mk_eq(y, x));
}

TEST(Bool, ConjAndProjections) {
  Term p = bv("p"), q = bv("q");
  Thm pq = l::conj(Thm::assume(p), Thm::assume(q));
  EXPECT_EQ(pq.concl(), l::mk_conj(p, q));
  Thm p2 = l::conjunct1(Thm::assume(l::mk_conj(p, q)));
  EXPECT_EQ(p2.concl(), p);
  Thm q2 = l::conjunct2(Thm::assume(l::mk_conj(p, q)));
  EXPECT_EQ(q2.concl(), q);
}

TEST(Bool, MpDisch) {
  Term p = bv("p"), q = bv("q");
  // {p ==> q, p} |- q
  Thm th = l::mp(Thm::assume(l::mk_imp(p, q)), Thm::assume(p));
  EXPECT_EQ(th.concl(), q);
  EXPECT_EQ(th.hyps().size(), 2u);
  // disch undoes assume:  |- p ==> p
  Thm refl_imp = l::disch(p, Thm::assume(p));
  EXPECT_TRUE(refl_imp.hyps().empty());
  EXPECT_EQ(refl_imp.concl(), l::mk_imp(p, p));
  // undisch round-trips.
  Thm und = l::undisch(refl_imp);
  EXPECT_EQ(und.concl(), p);
  EXPECT_EQ(und.hyps().size(), 1u);
}

TEST(Bool, GenSpecRoundTrip) {
  // gen binds a variable free in the conclusion (but not in any
  // hypothesis); spec at the same variable restores the theorem.
  Term x = Term::var("x", k::alpha_ty());
  Thm th = Thm::refl(x);  // |- x = x, no hypotheses
  Thm all = l::gen(x, th);
  EXPECT_TRUE(l::is_forall(all.concl()));
  Thm back = l::spec(x, all);
  EXPECT_EQ(back.concl(), th.concl());
}

TEST(Bool, GenRejectsFreeHypVar) {
  Term x = Term::var("x", k::alpha_ty());
  Term P = Term::var("P", k::fun_ty(k::alpha_ty(), k::bool_ty()));
  Term px = Term::comb(P, x);
  EXPECT_THROW(l::gen(x, Thm::assume(px)), k::KernelError);
}

TEST(Bool, GenThenSpec) {
  Term p = bv("p");
  Term x = Term::var("x", k::alpha_ty());
  // |- p ==> p, generalize over x (vacuous), then specialize.
  Thm imp = l::disch(p, Thm::assume(p));
  Thm all = l::gen(x, imp);
  EXPECT_TRUE(l::is_forall(all.concl()));
  Thm back = l::spec(Term::var("y", k::alpha_ty()), all);
  EXPECT_EQ(back.concl(), imp.concl());
}

TEST(Bool, SpecInstantiates) {
  // !x. x = x  |->  c = c
  Term x = Term::var("x", k::alpha_ty());
  Thm refl_all = l::gen(x, Thm::refl(x));
  Term c = Term::var("c", k::bool_ty());
  Thm inst = l::spec(c, Thm::inst_type({{"'a", k::bool_ty()}}, refl_all));
  EXPECT_EQ(inst.concl(), k::mk_eq(c, c));
}

TEST(Bool, SpecAll) {
  Term x = Term::var("x", k::alpha_ty());
  Term y = Term::var("y", k::alpha_ty());
  Thm th = l::gen_list({x, y}, Thm::refl(k::mk_eq(x, y)));
  Thm stripped = l::spec_all(th);
  EXPECT_FALSE(l::is_forall(stripped.concl()));
  EXPECT_TRUE(k::is_eq(stripped.concl()));
}

TEST(Bool, ContrFromFalse) {
  Term p = bv("p");
  Thm th = l::contr(p, Thm::assume(l::falsity_tm()));
  EXPECT_EQ(th.concl(), p);
}

TEST(Bool, NotIntroElim) {
  Term p = bv("p");
  Thm imp = l::disch(p, Thm::assume(l::falsity_tm()));
  // imp : {F} |- p ==> F
  Thm np = l::not_intro(imp);
  EXPECT_EQ(np.concl(), l::mk_neg(p));
  Thm back = l::not_elim(np);
  EXPECT_EQ(back.concl(), l::mk_imp(p, l::falsity_tm()));
}

TEST(Bool, Disjunction) {
  Term p = bv("p"), q = bv("q");
  Thm d1 = l::disj1(Thm::assume(p), q);
  EXPECT_EQ(d1.concl(), l::mk_disj(p, q));
  Thm d2 = l::disj2(p, Thm::assume(q));
  EXPECT_EQ(d2.concl(), l::mk_disj(p, q));
  // Case split: from p \/ q, p |- p \/ q, q |- p \/ q.
  Thm cases = l::disj_cases(Thm::assume(l::mk_disj(p, q)),
                            l::disj1(Thm::assume(p), q),
                            l::disj2(p, Thm::assume(q)));
  EXPECT_EQ(cases.concl(), l::mk_disj(p, q));
  ASSERT_EQ(cases.hyps().size(), 1u);
  EXPECT_EQ(cases.hyps()[0], l::mk_disj(p, q));
}

TEST(Bool, ExistsIntroChoose) {
  Term x = Term::var("x", k::bool_ty());
  // ?x. x = x, witness T.
  Term ex = l::mk_exists(x, k::mk_eq(x, x));
  Thm wit = Thm::refl(l::truth_tm());
  Thm exth = l::exists_intro(ex, l::truth_tm(), wit);
  EXPECT_EQ(exth.concl(), ex);
  EXPECT_TRUE(exth.hyps().empty());
  // choose: from ?x. x = x conclude T (trivially).
  Term v = Term::var("v", k::bool_ty());
  Thm target = l::truth();
  Thm out = l::choose(v, exth, target);
  EXPECT_EQ(out.concl(), l::truth_tm());
}

TEST(Conv, BetaConv) {
  Term x = bv("x");
  Term lam = Term::abs(x, k::mk_eq(x, x));
  Term redex = Term::comb(lam, l::truth_tm());
  Thm th = l::beta_conv(redex);
  EXPECT_EQ(k::eq_rhs(th.concl()),
            k::mk_eq(l::truth_tm(), l::truth_tm()));
  EXPECT_THROW(l::beta_conv(x), k::KernelError);
}

TEST(Conv, BetaNormNested) {
  // (\f. f T) (\y. y)  -->  T
  Term y = bv("y");
  Term f = Term::var("f", k::fun_ty(k::bool_ty(), k::bool_ty()));
  Term outer = Term::abs(f, Term::comb(f, l::truth_tm()));
  Term t = Term::comb(outer, Term::abs(y, y));
  Thm th = l::beta_norm_conv(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), l::truth_tm());
}

TEST(Conv, RandRatorAbs) {
  Term x = bv("x");
  Term fx = Term::comb(Term::var("f", k::fun_ty(k::bool_ty(), k::bool_ty())),
                       Term::comb(Term::abs(x, x), l::truth_tm()));
  Thm th = l::rand_conv(l::beta_conv)(fx);
  EXPECT_EQ(k::eq_lhs(th.concl()), fx);
  EXPECT_TRUE(k::eq_rhs(th.concl()).rand() == l::truth_tm());
}

TEST(Conv, CombinatorsRepeatTry) {
  Term x = bv("x");
  // ((\x. x) ((\x. x) T)) — repeat beta at top reduces twice.
  Term idb = Term::abs(x, x);
  Term t = Term::comb(idb, Term::comb(idb, l::truth_tm()));
  Thm th = l::top_depth_conv(l::beta_conv)(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), l::truth_tm());
  // tryc returns refl on failure.
  Thm r = l::tryc(l::beta_conv)(x);
  EXPECT_EQ(r.concl(), k::mk_eq(x, x));
}

TEST(Conv, DeclineMentioningTheLimitIsStillADecline) {
  // A conversion that declines with a message naming a limit: a decline
  // is told from the rewrite limit by type, never by its text.
  Term x = bv("x");
  Term idb = Term::abs(x, x);
  Term t = Term::comb(idb, Term::comb(idb, l::truth_tm()));
  l::Conv picky = [](const Term& u) {
    if (!u.is_comb() || !u.rator().is_abs()) {
      throw l::ConvError("picky: node budget limit exceeded");
    }
    return Thm::beta(u);
  };
  Thm th = l::top_depth_conv(picky)(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), l::truth_tm());
}

TEST(Conv, RewriteLimitAbortsByType) {
  // a -> b -> a -> ... never reaches a fixpoint.
  Term a = bv("a"), b = bv("b");
  Thm ab = Thm::assume(k::mk_eq(a, b));
  Thm ba = l::sym(ab);
  l::Conv flip = [=](const Term& u) {
    if (u == a) return ab;
    if (u == b) return ba;
    throw l::ConvError("flip: not a or b");
  };
  EXPECT_THROW(l::top_depth_conv(flip)(a), l::RewriteLimitError);
  EXPECT_THROW(l::repeatc(flip)(a), l::RewriteLimitError);
  EXPECT_THROW(l::top_depth_conv(l::repeatc(flip))(a), l::RewriteLimitError);
  // Still a ConvError: a combinator that catches declines catches it.
  Thm r = l::tryc(l::repeatc(flip))(a);
  EXPECT_EQ(r.concl(), k::mk_eq(a, a));
}

TEST(Match, VariablePattern) {
  Term x = Term::var("x", k::alpha_ty());
  Term t = k::mk_eq(bv("p"), bv("q"));
  auto m = l::term_match(x, t);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->types.at("'a"), k::bool_ty());
}

TEST(Match, StructuralMismatch) {
  Term pat = l::mk_conj(bv("p"), bv("q"));
  Term t = l::mk_disj(bv("a"), bv("b"));
  EXPECT_FALSE(l::term_match(pat, t).has_value());
}

TEST(Match, ConsistencyRequired) {
  // pattern p /\ p requires both sides equal.
  Term p = bv("p");
  Term pat = l::mk_conj(p, p);
  EXPECT_TRUE(l::term_match(pat, l::mk_conj(bv("a"), bv("a"))).has_value());
  EXPECT_FALSE(l::term_match(pat, l::mk_conj(bv("a"), bv("b"))).has_value());
}

TEST(Match, NoScopeExtrusion) {
  // pattern (\x. y) cannot match (\x. x): y would have to be the bound x.
  Term x = Term::var("x", k::bool_ty());
  Term y = Term::var("y", k::bool_ty());
  Term pat = Term::abs(x, y);
  Term t = Term::abs(x, x);
  EXPECT_FALSE(l::term_match(pat, t).has_value());
  // But it can match (\x. p) for a free p.
  EXPECT_TRUE(l::term_match(pat, Term::abs(x, bv("p"))).has_value());
}

TEST(Rewrite, RewrConvBasic) {
  // Rule: |- !x. (x /\ x) = x, proved by DEDUCT_ANTISYM on the two
  // entailments {x /\ x} |- x and {x} |- x /\ x; the rule equates the
  // conclusions *in argument order*, so the conjunction side goes first
  // to orient the rewrite towards the smaller term.
  Term x = bv("x");
  Thm to = l::conjunct1(Thm::assume(l::mk_conj(x, x)));
  Thm from = l::conj(Thm::assume(x), Thm::assume(x));
  Thm rule = l::gen(x, Thm::deduct_antisym(from, to));
  Term target = l::mk_conj(bv("p"), bv("p"));
  Thm applied = l::rewr_conv(rule)(target);
  EXPECT_EQ(k::eq_lhs(applied.concl()), target);
  EXPECT_EQ(k::eq_rhs(applied.concl()), bv("p"));
  // A non-matching target declines with a short message: depth-10
  // doubling conjunctions of p print to thousands of characters, and
  // conversion combinators discard the error, so it must not print them.
  Term tower = bv("p");
  for (int d = 0; d < 10; ++d) tower = l::mk_conj(tower, tower);
  Term miss = l::mk_conj(tower, bv("q"));
  ASSERT_GT(miss.to_string().size(), 4000u);
  try {
    l::rewr_conv(rule)(miss);
    ADD_FAILURE() << "rewr_conv matched a non-instance";
  } catch (const l::ConvError& e) {
    EXPECT_LT(std::string(e.what()).size(), 100u);
  }
}

TEST(Rewrite, RewriteConvDeep) {
  Term x = bv("x");
  Thm to = l::conjunct1(Thm::assume(l::mk_conj(x, x)));
  Thm from = l::conj(Thm::assume(x), Thm::assume(x));
  // DEDUCT_ANTISYM equates the conclusions in argument order: `from`
  // first orients the rule as (x /\ x) = x; the reverse orientation
  // (x = x /\ x) has a bare variable on the left and diverges.
  Thm rule = l::gen(x, Thm::deduct_antisym(from, to));
  // ((p /\ p) /\ (p /\ p))  -->  p
  Term p = bv("p");
  Term t = l::mk_conj(l::mk_conj(p, p), l::mk_conj(p, p));
  Thm th = l::rewrite_conv({rule})(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), p);
}

TEST(Rewrite, CondClauses) {
  auto& sig = k::Signature::instance();
  Thm cond_t = sig.theorem("COND_T");
  Term a = Term::var("a", k::bool_ty());
  Term b2 = Term::var("b", k::bool_ty());
  Term t = l::mk_cond(l::truth_tm(), a, b2);
  Thm th = l::rewr_conv(cond_t)(t);
  EXPECT_EQ(k::eq_rhs(th.concl()), a);
  Thm cond_f = sig.theorem("COND_F");
  Term t2 = l::mk_cond(l::falsity_tm(), a, b2);
  Thm th2 = l::rewr_conv(cond_f)(t2);
  EXPECT_EQ(k::eq_rhs(th2.concl()), b2);
}

TEST(Rewrite, ConvRule) {
  // From |- T and T = T rewrite... use conv_rule with all_conv: identity.
  Thm t = l::truth();
  Thm same = l::conv_rule(l::all_conv, t);
  EXPECT_EQ(same.concl(), t.concl());
}
