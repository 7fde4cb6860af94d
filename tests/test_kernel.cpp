// Unit tests for the trusted kernel: types, terms, substitution and the
// primitive inference rules.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kernel/printer.h"
#include "kernel/serialize.h"
#include "kernel/signature.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "testlib/gen.h"

namespace k = eda::kernel;
using k::Term;
using k::Thm;
using k::Type;

namespace {

Type b() { return k::bool_ty(); }
Term bv(const std::string& n) { return Term::var(n, b()); }

}  // namespace

TEST(Types, ConstructorsAndAccessors) {
  Type a = Type::var("'a");
  EXPECT_TRUE(a.is_var());
  EXPECT_EQ(a.name(), "'a");
  Type f = k::fun_ty(a, b());
  EXPECT_TRUE(f.is_app());
  EXPECT_EQ(f.name(), "fun");
  EXPECT_EQ(f.args().size(), 2u);
  EXPECT_EQ(k::dom_ty(f), a);
  EXPECT_EQ(k::cod_ty(f), b());
}

TEST(Types, EqualityAndOrder) {
  EXPECT_EQ(Type::var("'a"), Type::var("'a"));
  EXPECT_NE(Type::var("'a"), Type::var("'b"));
  EXPECT_EQ(k::fun_ty(b(), b()), k::fun_ty(b(), b()));
  EXPECT_NE(k::fun_ty(b(), b()), b());
  EXPECT_LT(Type::compare(Type::var("'a"), Type::var("'b")), 0);
}

TEST(Types, Substitution) {
  k::TypeSubst theta;
  theta.emplace("'a", b());
  Type f = k::fun_ty(k::alpha_ty(), k::beta_ty());
  Type g = k::type_subst(theta, f);
  EXPECT_EQ(k::dom_ty(g), b());
  EXPECT_EQ(k::cod_ty(g), k::beta_ty());
}

TEST(Types, Matching) {
  k::TypeSubst theta;
  Type pat = k::fun_ty(k::alpha_ty(), k::alpha_ty());
  EXPECT_TRUE(k::type_match(pat, k::fun_ty(b(), b()), theta));
  EXPECT_EQ(theta.at("'a"), b());
  // Conflicting binding fails.
  k::TypeSubst theta2;
  EXPECT_FALSE(
      k::type_match(pat, k::fun_ty(b(), k::fun_ty(b(), b())), theta2));
}

TEST(Types, ToString) {
  Type t = k::fun_ty(k::fun_ty(b(), b()), b());
  EXPECT_EQ(t.to_string(), "(bool -> bool) -> bool");
  EXPECT_EQ(k::prod_ty(b(), b()).to_string(), "bool # bool");
}

TEST(Terms, CombTypeChecks) {
  Term f = Term::var("f", k::fun_ty(b(), b()));
  Term x = bv("x");
  Term fx = Term::comb(f, x);
  EXPECT_EQ(fx.type(), b());
  EXPECT_THROW(Term::comb(x, x), k::KernelError);
  Term num_x = Term::var("x", k::num_ty());
  EXPECT_THROW(Term::comb(f, num_x), k::KernelError);
}

TEST(Terms, AlphaEquivalence) {
  Term x = bv("x"), y = bv("y");
  Term idx = Term::abs(x, x);
  Term idy = Term::abs(y, y);
  EXPECT_EQ(idx, idy);
  EXPECT_EQ(idx.hash(), idy.hash());
  // \x. \y. x  !=  \x. \y. y
  Term t1 = Term::abs(x, Term::abs(y, x));
  Term t2 = Term::abs(x, Term::abs(y, y));
  EXPECT_NE(t1, t2);
  // \x. \x. x : inner binder shadows.
  Term shadow = Term::abs(x, Term::abs(x, x));
  EXPECT_EQ(shadow, Term::abs(y, Term::abs(x, x)));
  EXPECT_NE(shadow, Term::abs(y, Term::abs(x, y)));
}

TEST(Terms, AlphaEquivalenceAcrossDistinctNodes) {
  // The binder and its occurrence built as separate nodes must still bind.
  Term x1 = bv("x");
  Term x2 = bv("x");
  Term t1 = Term::abs(x1, x2);
  Term t2 = Term::abs(bv("z"), bv("z"));
  EXPECT_EQ(t1, t2);
}

TEST(Terms, SharedStructureShortCircuitRespectsBinders) {
  // compare() may stop early on pointer-identical subterms only while the
  // pending binder columns agree.  `\x. \y. P` vs `\y. \x. P` share the
  // node P = (x = y) but are NOT alpha-equal — the asymmetric binder
  // context must disable the short circuit.
  Term x = bv("x"), y = bv("y");
  Term p = k::mk_eq(x, y);  // one shared node
  Term t1 = Term::abs(x, Term::abs(y, p));
  Term t2 = Term::abs(y, Term::abs(x, p));
  EXPECT_NE(t1, t2);
  // Identical binder columns re-enable it: both sides literally \x.\y. p.
  Term t3 = Term::abs(x, Term::abs(y, p));
  EXPECT_EQ(t1, t3);
}

TEST(Terms, ComparisonLinearInDagSize) {
  // A 64-deep doubling DAG has ~2^64 tree nodes; comparison must finish
  // (instantly) by exploiting sharing.
  Term big = eda::testlib::eq_tower(64);
  Term big2 = k::mk_eq(big, big);
  EXPECT_EQ(big2, k::mk_eq(big, big));
  EXPECT_NE(big, big2);
}

TEST(Terms, FreeVars) {
  Term x = bv("x"), y = bv("y");
  Term t = Term::abs(x, k::mk_eq(x, y));
  const k::FreeVars& fv = k::free_vars_set(t);
  EXPECT_EQ(fv.size(), 1u);
  EXPECT_TRUE(fv.count(y) > 0);
  EXPECT_FALSE(k::is_free_in(x, t));
  EXPECT_TRUE(k::is_free_in(y, t));
}

TEST(Terms, VsubstSimple) {
  Term x = bv("x"), y = bv("y");
  k::TermSubst theta;
  theta.emplace(x, y);
  EXPECT_EQ(k::vsubst(theta, x), y);
  EXPECT_EQ(k::vsubst(theta, k::mk_eq(x, x)), k::mk_eq(y, y));
}

TEST(Terms, VsubstCaptureAvoidance) {
  // (\y. x = y)[x := y]  must rename the binder, not capture.
  Term x = bv("x"), y = bv("y");
  Term t = Term::abs(y, k::mk_eq(x, y));
  k::TermSubst theta;
  theta.emplace(x, y);
  Term r = k::vsubst(theta, t);
  // Result should be alpha-equal to \z. y = z.
  Term z = bv("z");
  EXPECT_EQ(r, Term::abs(z, k::mk_eq(y, z)));
}

TEST(Terms, VsubstBoundNotSubstituted) {
  Term x = bv("x");
  Term t = Term::abs(x, x);
  k::TermSubst theta;
  theta.emplace(x, bv("y"));
  EXPECT_EQ(k::vsubst(theta, t), t);
}

TEST(Terms, TypeInstRenamesOnClash) {
  // \x:'a. x:bool  --['a := bool]-->  binder must not capture the free x.
  Term xa = Term::var("x", k::alpha_ty());
  Term xb = bv("x");
  Term t = Term::abs(xa, k::mk_eq(xb, xb));
  k::TypeSubst theta;
  theta.emplace("'a", b());
  Term r = k::type_inst(theta, t);
  // The free x:bool stays free.
  EXPECT_TRUE(k::is_free_in(xb, r));
  EXPECT_TRUE(r.is_abs());
  EXPECT_NE(r.bound_var().name(), "x");
}

TEST(Terms, StripComb) {
  Term f = Term::var("f", k::fun_ty(b(), k::fun_ty(b(), b())));
  Term x = bv("x"), y = bv("y");
  Term t = Term::comb(Term::comb(f, x), y);
  auto [head, args] = k::strip_comb(t);
  EXPECT_EQ(head, f);
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[0], x);
  EXPECT_EQ(args[1], y);
  EXPECT_EQ(k::list_comb(f, {x, y}), t);
}

TEST(Interning, PointerIdentityIsStructuralEquality) {
  // Structurally identical terms built through independent construction
  // paths intern to one node: identical() <=> structural equality.
  Term t1 = k::mk_eq(bv("x"), bv("y"));
  Term t2 = k::mk_eq(bv("x"), bv("y"));
  EXPECT_TRUE(t1.identical(t2));
  EXPECT_EQ(t1.node_id(), t2.node_id());
  EXPECT_EQ(t1, t2);
  // And conversely: distinct structures are distinct nodes.
  Term t3 = k::mk_eq(bv("y"), bv("x"));
  EXPECT_FALSE(t1.identical(t3));
}

TEST(Interning, TypesInternToOneNode) {
  Type f1 = k::fun_ty(k::bool_ty(), k::num_ty());
  Type f2 = k::fun_ty(k::bool_ty(), k::num_ty());
  EXPECT_EQ(f1.node_id(), f2.node_id());
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1.node_id(), k::fun_ty(k::num_ty(), k::bool_ty()).node_id());
  // has_vars is precomputed and consistent.
  EXPECT_FALSE(f1.has_vars());
  EXPECT_TRUE(k::fun_ty(k::alpha_ty(), k::bool_ty()).has_vars());
}

TEST(Interning, AlphaEquivalentAbstractionsCompareEqualButStayDistinct) {
  // Interning is structural (binder spellings matter), while operator== is
  // alpha-equivalence: \x. x and \y. y are two nodes that compare equal,
  // with equal (alpha-invariant) hashes.
  Term idx = Term::abs(bv("x"), bv("x"));
  Term idy = Term::abs(bv("y"), bv("y"));
  EXPECT_FALSE(idx.identical(idy));
  EXPECT_EQ(idx, idy);
  EXPECT_EQ(idx.hash(), idy.hash());
  // Rebuilding either spelling hits the same interned node.
  EXPECT_TRUE(idx.identical(Term::abs(bv("x"), bv("x"))));
}

TEST(Interning, EqualityOnIndependentlyBuiltTowersIsConstantTime) {
  // Two independently built 2^40-leaf towers collapse to one node each;
  // without interning this comparison would visit ~2^40 node pairs.
  Term a = eda::testlib::eq_tower(40);
  Term b = eda::testlib::eq_tower(40);
  EXPECT_TRUE(a.identical(b));
  EXPECT_EQ(a, b);
}

TEST(Interning, FreeVarSetIsCachedPerNode) {
  Term t = Term::abs(bv("x"), k::mk_eq(bv("x"), bv("y")));
  const k::FreeVars& fv1 = k::free_vars_set(t);
  const k::FreeVars& fv2 = k::free_vars_set(t);
  EXPECT_EQ(&fv1, &fv2);  // same cached set, not a recomputation
  EXPECT_EQ(fv1.size(), 1u);
  EXPECT_TRUE(fv1.count(bv("y")) > 0);
}

// --- The slim term store ---------------------------------------------------

// Every interned node is permanent, so its size is the store's growth rate.
static_assert(sizeof(k::detail::TermNode) <= 48,
              "an interned term node must stay at 48 bytes or less");

namespace {

/// The free variables by a plain recursive walk over the term tree, with
/// an explicit binder stack (innermost last), for comparison with the
/// cached views.
void naive_free_vars(const Term& t, std::vector<Term>& bound,
                     std::set<Term>& out) {
  switch (t.kind()) {
    case Term::Kind::Var:
      for (const Term& v : bound) {
        if (v.identical(t)) return;
      }
      out.insert(t);
      return;
    case Term::Kind::Const:
      return;
    case Term::Kind::Comb:
      naive_free_vars(t.rator(), bound, out);
      naive_free_vars(t.rand(), bound, out);
      return;
    case Term::Kind::Abs:
      bound.push_back(t.bound_var());
      naive_free_vars(t.body(), bound, out);
      bound.pop_back();
      return;
  }
}

std::set<Term> naive_free_vars(const Term& t) {
  std::vector<Term> bound;
  std::set<Term> out;
  naive_free_vars(t, bound, out);
  return out;
}

/// The view of `t` equals the naive walk element by element, in
/// Term::compare order, and the derived queries agree with it.
void expect_view_matches_walk(const Term& t) {
  const std::set<Term> want = naive_free_vars(t);
  const k::FreeVars& got = k::free_vars_set(t);
  ASSERT_EQ(got.size(), want.size()) << t.to_string();
  auto it = want.begin();
  for (const Term& v : got) {
    EXPECT_TRUE(v.identical(*it)) << t.to_string();
    ++it;
  }
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(Term::compare(got.begin()[i - 1], got.begin()[i]), 0);
  }
  for (const Term& v : want) EXPECT_TRUE(k::is_free_in(v, t));
  std::set<Term> collected;
  k::collect_free_vars(t, collected);
  EXPECT_EQ(collected, want);
}

}  // namespace

TEST(SlimStore, FreeVarViewsMatchANaiveWalk) {
  eda::testlib::TermGen gen(0xf7ee5);
  for (int i = 0; i < 300; ++i) {
    Term g = gen.random_goal(2 + i % 6);
    expect_view_matches_walk(g);
    // Abstractions that shadow a variable free elsewhere in the term: the
    // variable is bound under the binder and free in the argument.
    for (const Term& v : naive_free_vars(g)) {
      Term lam = Term::abs(v, g);
      Term app = Term::comb(lam, v);
      expect_view_matches_walk(lam);
      expect_view_matches_walk(app);
      expect_view_matches_walk(Term::abs(v, app));
      EXPECT_FALSE(k::is_free_in(v, lam));
      EXPECT_TRUE(k::is_free_in(v, app));
    }
  }
  // A closed node and a node whose variables all come from one child share
  // views rather than copy them.
  Term x = bv("x"), y = bv("y");
  EXPECT_TRUE(k::free_vars_set(Term::abs(x, x)).empty());
  EXPECT_EQ(&k::free_vars_set(Term::abs(x, x)),
            &k::free_vars_set(k::mk_eq(Term::abs(y, y), Term::abs(y, y))));
  EXPECT_EQ(&k::free_vars_set(k::mk_eq(x, x)), &k::free_vars_set(x));
}

TEST(SlimStore, ConcurrentFirstCallsPublishOneViewPerNode) {
  // Fresh nodes (names no other test uses) whose views nobody has built:
  // four threads ask for them at once, in different orders, and must all
  // get the same published view for each node.
  std::vector<Term> nodes;
  for (int i = 0; i < 64; ++i) {
    std::vector<Term> leaves;
    for (int j = 0; j < 6; ++j) {
      leaves.push_back(bv("fv_race_" + std::to_string(i) + "_" +
                          std::to_string(j)));
    }
    Term t = leaves[0];
    for (std::size_t j = 1; j < leaves.size(); ++j) {
      t = k::mk_eq(t, leaves[j]);
      nodes.push_back(t);
      nodes.push_back(Term::abs(leaves[j], t));
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<const k::FreeVars*>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::vector<const k::FreeVars*>& mine = seen[th];
      mine.assign(nodes.size(), nullptr);
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        std::size_t i = th % 2 == 0 ? n : nodes.size() - 1 - n;
        mine[i] = &k::free_vars_set(nodes[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (int th = 1; th < kThreads; ++th) {
      EXPECT_EQ(seen[th][i], seen[0][i]) << i;
    }
    EXPECT_EQ(seen[0][i], &k::free_vars_set(nodes[i]));
    expect_view_matches_walk(nodes[i]);
  }
}

TEST(SlimStore, LongNamesRoundTrip) {
  // Names past the 15 characters std::string keeps inline, such as the
  // service's `#`-plus-16-hex digest constants, live beside their node.
  const std::string digest = "#0123456789abcdef";
  const std::string long_var = "a_variable_name_well_past_sixteen_chars";
  Term c = Term::constant(digest, k::num_ty());
  Term v = Term::var(long_var, k::num_ty());
  EXPECT_EQ(c.name(), digest);
  EXPECT_EQ(v.name(), long_var);
  EXPECT_TRUE(c.identical(Term::constant(digest, k::num_ty())));
  EXPECT_FALSE(v.identical(Term::var(long_var + "x", k::num_ty())));
  Term eq = k::mk_eq(c, v);
  Term lam = Term::abs(v, eq);
  EXPECT_EQ(k::pretty(eq), digest + " = " + long_var);
  EXPECT_EQ(k::pretty(lam),
            "\\" + long_var + ". " + digest + " = " + long_var);

  k::Encoder enc;
  enc.term(lam);
  enc.term(c);
  std::string bytes = enc.finish();
  k::Decoder dec(bytes);
  Term lam_back = dec.term();
  Term c_back = dec.term();
  EXPECT_TRUE(lam_back.identical(lam));
  EXPECT_TRUE(c_back.identical(c));
  EXPECT_EQ(c_back.name(), digest);
  EXPECT_EQ(lam_back.bound_var().name(), long_var);
}

TEST(Interning, HasTypeVarsPrecomputed) {
  Term ground = k::mk_eq(bv("p"), bv("q"));
  EXPECT_FALSE(ground.has_type_vars());
  Term poly = Term::var("v", k::alpha_ty());
  EXPECT_TRUE(poly.has_type_vars());
  EXPECT_TRUE(Term::abs(poly, poly).has_type_vars());
}

TEST(Interning, SurvivesHighChurnConstruction) {
  // Churn: build a large batch of distinct terms (forcing table growth and
  // rehashes), then rebuild the same batch and require every node to be an
  // intern hit with stable identity.
  auto build = [](int salt) {
    std::vector<Term> out;
    for (int i = 0; i < 2000; ++i) {
      Term v = Term::var("c" + std::to_string(i) + "_" + std::to_string(salt),
                         k::num_ty());
      Term e = k::mk_eq(v, v);
      out.push_back(Term::abs(v, k::mk_eq(e, e)));
    }
    return out;
  };
  std::vector<Term> first = build(7);
  auto stats_before = Term::intern_stats();
  std::vector<Term> second = build(7);
  auto stats_after = Term::intern_stats();
  // No new nodes were created by the rebuild, only table hits.
  EXPECT_EQ(stats_before.live_nodes, stats_after.live_nodes);
  EXPECT_GT(stats_after.hits, stats_before.hits);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].identical(second[i]));
  }
  // Distinct content still interns to distinct nodes after all the churn.
  std::vector<Term> other = build(8);
  EXPECT_FALSE(first[0].identical(other[0]));
}

TEST(Rules, Refl) {
  Term x = bv("x");
  Thm th = Thm::refl(x);
  EXPECT_TRUE(th.hyps().empty());
  EXPECT_EQ(th.concl(), k::mk_eq(x, x));
  EXPECT_TRUE(th.is_pure());
}

TEST(Rules, AssumeRequiresBool) {
  EXPECT_THROW(Thm::assume(Term::var("n", k::num_ty())), k::KernelError);
  Term p = bv("p");
  Thm th = Thm::assume(p);
  ASSERT_EQ(th.hyps().size(), 1u);
  EXPECT_EQ(th.hyps()[0], p);
  EXPECT_EQ(th.concl(), p);
}

TEST(Rules, TransChecksMiddle) {
  Term x = bv("x"), y = bv("y"), z = bv("z");
  Thm xy = Thm::assume(k::mk_eq(x, y));
  Thm yz = Thm::assume(k::mk_eq(y, z));
  Thm xz = Thm::trans(xy, yz);
  EXPECT_EQ(xz.concl(), k::mk_eq(x, z));
  EXPECT_EQ(xz.hyps().size(), 2u);
  Thm xx = Thm::refl(x);
  EXPECT_THROW(Thm::trans(xx, yz), k::KernelError);
}

TEST(Rules, TransIsConstantTimeOnSharedStructure) {
  // The paper's compound-synthesis argument: a = b, b = c  |-  a = c via one
  // rule application, regardless of the size of a, b, c.
  Term big = eda::testlib::eq_tower(1000);
  Term p = Term::var("p", big.type());
  Thm ab = Thm::assume(k::mk_eq(big, p));
  Thm bc = Thm::assume(k::mk_eq(p, big));
  Thm ac = Thm::trans(ab, bc);
  EXPECT_EQ(ac.concl(), k::mk_eq(big, big));
}

TEST(Rules, Beta) {
  Term x = bv("x"), y = bv("y");
  Term lam = Term::abs(x, k::mk_eq(x, x));
  Term redex = Term::comb(lam, y);
  Thm th = Thm::beta(redex);
  EXPECT_EQ(th.concl(), k::mk_eq(redex, k::mk_eq(y, y)));
  EXPECT_THROW(Thm::beta(y), k::KernelError);
}

TEST(Rules, AbsBlocksFreeHypVar) {
  Term x = bv("x"), y = bv("y");
  Thm th = Thm::assume(k::mk_eq(x, y));
  EXPECT_THROW(Thm::abs(x, th), k::KernelError);
  Term z = bv("z");
  Thm ok = Thm::abs(z, th);
  EXPECT_EQ(ok.concl(),
            k::mk_eq(Term::abs(z, x), Term::abs(z, y)));
}

TEST(Rules, EqMp) {
  Term p = bv("p"), q = bv("q");
  Thm pq = Thm::assume(k::mk_eq(p, q));
  Thm pp = Thm::assume(p);
  Thm qq = Thm::eq_mp(pq, pp);
  EXPECT_EQ(qq.concl(), q);
  EXPECT_EQ(qq.hyps().size(), 2u);
  EXPECT_THROW(Thm::eq_mp(pp, pp), k::KernelError);
}

TEST(Rules, DeductAntisym) {
  Term p = bv("p"), q = bv("q");
  Thm th = Thm::deduct_antisym(Thm::assume(p), Thm::assume(q));
  EXPECT_EQ(th.concl(), k::mk_eq(p, q));
  // Each side's conclusion is removed from the other's hypotheses.
  ASSERT_EQ(th.hyps().size(), 2u);
}

TEST(Rules, InstType) {
  Term xa = Term::var("x", k::alpha_ty());
  Thm th = Thm::refl(xa);
  k::TypeSubst theta;
  theta.emplace("'a", b());
  Thm th2 = Thm::inst_type(theta, th);
  EXPECT_EQ(th2.concl(), k::mk_eq(bv("x"), bv("x")));
}

TEST(Rules, Inst) {
  Term x = bv("x"), y = bv("y");
  Thm th = Thm::refl(x);
  k::TermSubst theta;
  theta.emplace(x, y);
  Thm th2 = Thm::inst(theta, th);
  EXPECT_EQ(th2.concl(), k::mk_eq(y, y));
  // Non-variable key is rejected.
  k::TermSubst bad;
  bad.emplace(k::mk_eq(x, x), k::mk_eq(y, y));
  EXPECT_THROW(Thm::inst(bad, th), k::KernelError);
}

TEST(Rules, HypsStayCanonical) {
  Term p = bv("p"), q = bv("q");
  Thm th1 = Thm::assume(p);
  Thm th2 = Thm::assume(p);
  Thm both = Thm::deduct_antisym(th1, Thm::assume(q));
  // p, q each appear once.
  EXPECT_EQ(both.hyps().size(), 2u);
}

TEST(Oracle, TagPropagates) {
  Term p = bv("p");
  Thm ax = k::Oracle::admit("TEST_TAG", p);
  EXPECT_FALSE(ax.is_pure());
  Thm e = Thm::deduct_antisym(ax, Thm::assume(bv("q")));
  EXPECT_EQ(e.oracles().count("TEST_TAG"), 1u);
  // Pure theorems stay pure.
  EXPECT_TRUE(Thm::refl(p).is_pure());
}

TEST(Signature, PrimitiveSignature) {
  auto& sig = k::Signature::instance();
  EXPECT_TRUE(sig.has_type("bool"));
  EXPECT_TRUE(sig.has_type("fun"));
  EXPECT_TRUE(sig.has_const("="));
  EXPECT_EQ(sig.type_arity("fun"), 2u);
}

TEST(Signature, DeclareIdempotentWhenIdentical) {
  auto& sig = k::Signature::instance();
  sig.declare_type("test_ty", 1);
  EXPECT_NO_THROW(sig.declare_type("test_ty", 1));
  EXPECT_THROW(sig.declare_type("test_ty", 2), k::KernelError);
}

TEST(Signature, NewDefinitionRejectsFreeVars) {
  auto& sig = k::Signature::instance();
  EXPECT_THROW(sig.new_definition("bad_def", bv("x")), k::KernelError);
}

TEST(Signature, NewDefinitionProducesEquation) {
  auto& sig = k::Signature::instance();
  Term x = bv("x");
  Thm def = sig.new_definition("my_id_fn", Term::abs(x, x));
  EXPECT_TRUE(k::is_eq(def.concl()));
  EXPECT_TRUE(def.is_pure());
  EXPECT_TRUE(sig.has_const("my_id_fn"));
  // Identical redefinition is idempotent; conflicting redefinition throws.
  EXPECT_NO_THROW(sig.new_definition("my_id_fn", Term::abs(x, x)));
  Term y = Term::var("y", k::num_ty());
  EXPECT_THROW(sig.new_definition("my_id_fn", Term::abs(y, y)),
               k::KernelError);
}

TEST(Signature, MkConstAtChecksInstance) {
  auto& sig = k::Signature::instance();
  Term eq_at_bool = sig.mk_const_at("=", k::fun_ty(b(), k::fun_ty(b(), b())));
  EXPECT_EQ(eq_at_bool.name(), "=");
  EXPECT_THROW(sig.mk_const_at("=", b()), k::KernelError);
}

TEST(Printer, BasicForms) {
  // Equality at bool renders as <=> (HOL convention); at other types as =.
  Term x = bv("x"), y = bv("y");
  EXPECT_EQ(eda::kernel::pretty(k::mk_eq(x, y)), "x <=> y");
  Term n = Term::var("n", k::num_ty()), m = Term::var("m", k::num_ty());
  EXPECT_EQ(eda::kernel::pretty(k::mk_eq(n, m)), "n = m");
  Term lam = Term::abs(x, x);
  EXPECT_EQ(eda::kernel::pretty(lam), "\\x. x");
}
