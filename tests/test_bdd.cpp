// Tests for the BDD package, with property checks against brute-force
// truth-table evaluation.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <random>
#include <vector>

#include "bdd/bdd.h"

namespace b = eda::bdd;
using b::BddId;
using b::BddManager;

TEST(Bdd, Terminals) {
  BddManager m(4);
  EXPECT_EQ(m.false_bdd(), 0);
  EXPECT_EQ(m.true_bdd(), 1);
  EXPECT_EQ(m.lnot(m.false_bdd()), m.true_bdd());
}

TEST(Bdd, VarAndEval) {
  BddManager m(3);
  BddId x0 = m.var(0), x2 = m.var(2);
  BddId f = m.land(x0, m.lnot(x2));
  EXPECT_TRUE(m.eval(f, {true, false, false}));
  EXPECT_FALSE(m.eval(f, {true, false, true}));
  EXPECT_FALSE(m.eval(f, {false, false, false}));
}

TEST(Bdd, Canonicity) {
  BddManager m(3);
  // (x0 /\ x1) \/ (x0 /\ ~x1)  ==  x0
  BddId f = m.lor(m.land(m.var(0), m.var(1)),
                  m.land(m.var(0), m.lnot(m.var(1))));
  EXPECT_EQ(f, m.var(0));
  // xor expressed two ways.
  BddId g1 = m.lxor(m.var(0), m.var(1));
  BddId g2 = m.lor(m.land(m.var(0), m.lnot(m.var(1))),
                   m.land(m.lnot(m.var(0)), m.var(1)));
  EXPECT_EQ(g1, g2);
}

TEST(Bdd, Exists) {
  BddManager m(3);
  BddId f = m.land(m.var(0), m.var(1));
  BddId ex = m.exists(f, {1});
  EXPECT_EQ(ex, m.var(0));
  EXPECT_EQ(m.exists(f, {0, 1}), m.true_bdd());
}

TEST(Bdd, AndExistsMatchesComposed) {
  BddManager m(6);
  std::mt19937 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    // Random functions over 6 vars.
    auto random_fn = [&]() {
      BddId f = (rng() & 1) ? m.true_bdd() : m.false_bdd();
      for (int k = 0; k < 6; ++k) {
        BddId v = (rng() & 1) ? m.var(k) : m.nvar(k);
        switch (rng() % 3) {
          case 0: f = m.land(f, v); break;
          case 1: f = m.lor(f, v); break;
          default: f = m.lxor(f, v); break;
        }
      }
      return f;
    };
    BddId f = random_fn(), g = random_fn();
    std::vector<int> q = {1, 3, 5};
    EXPECT_EQ(m.and_exists(f, g, q), m.exists(m.land(f, g), q));
  }
}

TEST(Bdd, CofactorMatchesQuantifiedConjunction) {
  BddManager m(6);
  std::mt19937 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    BddId f = (rng() & 1) ? m.true_bdd() : m.false_bdd();
    for (int k = 0; k < 12; ++k) {
      const int v = static_cast<int>(rng() % 6);
      BddId lit = (rng() & 1) ? m.var(v) : m.nvar(v);
      switch (rng() % 3) {
        case 0: f = m.land(f, lit); break;
        case 1: f = m.lor(f, lit); break;
        default: f = m.lxor(f, lit); break;
      }
    }
    for (BddId g : {f, m.lnot(f)}) {
      for (int v = 0; v < 6; ++v) {
        const BddId on = m.cofactor(g, v, true);
        const BddId off = m.cofactor(g, v, false);
        EXPECT_EQ(on, m.exists(m.land(g, m.var(v)), {v}));
        EXPECT_EQ(off, m.exists(m.land(g, m.nvar(v)), {v}));
        EXPECT_EQ(m.lor(on, off), m.exists(g, {v}));
        EXPECT_EQ(m.cofactor(on, v, false), on);  // v is gone
      }
    }
  }
}

TEST(Bdd, Rename) {
  BddManager m(4);
  BddId f = m.land(m.var(0), m.var(2));
  BddId g = m.rename(f, {1, 1, 3});  // 0 -> 1, 2 -> 3; 3 keeps its index
  EXPECT_EQ(g, m.land(m.var(1), m.var(3)));
  EXPECT_EQ(m.rename(g, {0, 3, 2, 1}), g);  // swap: the ite fallback
}

TEST(Bdd, Support) {
  BddManager m(5);
  BddId f = m.lor(m.var(1), m.land(m.var(3), m.nvar(4)));
  std::vector<int> s = m.support(f);
  EXPECT_EQ(s, (std::vector<int>{1, 3, 4}));
}

TEST(Bdd, VariableIndicesAreChecked) {
  BddManager m(3);
  EXPECT_THROW(m.var(-1), b::BddError);
  EXPECT_THROW(m.var(3), b::BddError);
  EXPECT_THROW(m.nvar(-1), b::BddError);
  EXPECT_THROW(m.nvar(3), b::BddError);
  EXPECT_THROW(m.exists(m.var(0), {3}), b::BddError);
  EXPECT_THROW(m.rename(m.var(0), {3}), b::BddError);
  EXPECT_THROW(m.rename(m.var(0), {0, 1, 2, 0}), b::BddError);  // too long
  EXPECT_THROW(m.cofactor(m.var(0), 3, true), b::BddError);
  BddId f = m.land(m.var(0), m.var(2));
  EXPECT_THROW(m.eval(f, {true, false}), b::BddError);
  EXPECT_TRUE(m.eval(f, {true, false, true}));
}

TEST(Bdd, DeadlineThrowsBddTimeoutAndLeavesAUsableManager) {
  // f = AND over k of (x_2k xor x_2k+1): true exactly when every pair
  // differs.
  BddManager m(8);
  auto build = [&m] {
    BddId f = m.true_bdd();
    for (int k = 0; k < 8; k += 2) {
      f = m.land(f, m.lxor(m.var(k), m.var(k + 1)));
    }
    return f;
  };
  m.set_deadline(std::chrono::steady_clock::now() -
                 std::chrono::seconds(1));
  EXPECT_THROW(build(), b::BddTimeout);
  m.set_deadline(std::chrono::steady_clock::time_point::max());
  const BddId f = build();
  std::vector<bool> env = {true, false, false, true, true, false, false, true};
  EXPECT_TRUE(m.eval(f, env));
  env[3] = false;
  EXPECT_FALSE(m.eval(f, env));
}

TEST(Bdd, NodeLimitEnforced) {
  BddManager m(40, 200);
  BddId f = m.true_bdd();
  EXPECT_THROW(
      {
        for (int k = 0; k < 20; ++k) {
          f = m.land(f, m.lxor(m.var(k), m.var(k + 20)));
        }
      },
      b::BddError);
}

// Brute-force reference: entry a of a Table is the function's value under
// the assignment that sets variable v to bit v of a.
using Table = std::vector<bool>;

Table table_of(const BddManager& m, BddId f) {
  const int nv = m.num_vars();
  Table t(std::size_t{1} << nv);
  std::vector<bool> env(static_cast<std::size_t>(nv));
  for (std::size_t a = 0; a < t.size(); ++a) {
    for (int v = 0; v < nv; ++v) {
      env[static_cast<std::size_t>(v)] = (a >> v) & 1;
    }
    t[a] = m.eval(f, env);
  }
  return t;
}

Table var_table(int nv, int v) {
  Table t(std::size_t{1} << nv);
  for (std::size_t a = 0; a < t.size(); ++a) t[a] = (a >> v) & 1;
  return t;
}

template <typename Op>
Table zip(const Table& x, const Table& y, Op op) {
  Table t(x.size());
  for (std::size_t a = 0; a < t.size(); ++a) t[a] = op(x[a], y[a]);
  return t;
}

Table negate(const Table& x) {
  return zip(x, x, [](bool p, bool) { return !p; });
}

Table exists_table(Table t, const std::vector<int>& vars) {
  for (int v : vars) {
    const std::size_t bit = std::size_t{1} << v;
    for (std::size_t a = 0; a < t.size(); ++a) t[a] = t[a] || t[a ^ bit];
  }
  return t;
}

// cofactor(f, v, value) under assignment a is f under a with v := value.
Table cofactor_table(const Table& t, int v, bool value) {
  Table out(t.size());
  const std::size_t bit = std::size_t{1} << v;
  for (std::size_t a = 0; a < t.size(); ++a) {
    out[a] = t[value ? (a | bit) : (a & ~bit)];
  }
  return out;
}

// rename(f, to) under assignment a is f under the assignment that gives
// each variable x the value a assigns to to[x].
Table rename_table(const Table& t, int nv, const std::vector<int>& to) {
  Table out(t.size());
  for (std::size_t a = 0; a < t.size(); ++a) {
    std::size_t src = 0;
    for (int x = 0; x < nv; ++x) {
      const int y = to[static_cast<std::size_t>(x)];
      src |= ((a >> y) & 1) << x;
    }
    out[a] = t[src];
  }
  return out;
}

class BddTruthTable : public ::testing::TestWithParam<int> {};

TEST_P(BddTruthTable, RandomExpressionsMatchTruthTables) {
  int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  // The engines' product layout in miniature: inputs 0-1, then
  // (present, next) pairs (2, 3) and (4, 5).
  const int nv = 6;
  const std::vector<int> image_quantify = {0, 1, 2, 4};
  const std::vector<int> next_to_present = {0, 1, 2, 2, 4, 4};
  const std::vector<int> swap = {1, 0, 5, 3, 4, 2};
  BddManager m(nv);
  // Random expression tree, evaluated both as BDD and as a truth table.
  struct Expr {
    int op;  // 0 var, 1 and, 2 or, 3 xor, 4 not
    int var = 0;
    int a = -1, b = -1;
  };
  std::vector<Expr> exprs;
  for (int k = 0; k < 25; ++k) {
    Expr e;
    if (k < 3 || rng() % 4 == 0) {
      e.op = 0;
      e.var = static_cast<int>(rng() % nv);
    } else {
      e.op = 1 + static_cast<int>(rng() % 4);
      e.a = static_cast<int>(rng() % k);
      e.b = static_cast<int>(rng() % k);
    }
    exprs.push_back(e);
  }
  std::vector<BddId> bdds;
  std::vector<Table> tables;
  for (const Expr& e : exprs) {
    const auto a = static_cast<std::size_t>(e.a);
    const auto b = static_cast<std::size_t>(e.b);
    switch (e.op) {
      case 0:
        bdds.push_back(m.var(e.var));
        tables.push_back(var_table(nv, e.var));
        break;
      case 1:
        bdds.push_back(m.land(bdds[a], bdds[b]));
        tables.push_back(zip(tables[a], tables[b], std::logical_and<>()));
        break;
      case 2:
        bdds.push_back(m.lor(bdds[a], bdds[b]));
        tables.push_back(zip(tables[a], tables[b], std::logical_or<>()));
        break;
      case 3:
        bdds.push_back(m.lxor(bdds[a], bdds[b]));
        tables.push_back(zip(tables[a], tables[b], std::not_equal_to<>()));
        break;
      default:
        bdds.push_back(m.lnot(bdds[a]));
        tables.push_back(negate(tables[a]));
        break;
    }
  }
  for (std::size_t k = 0; k < exprs.size(); ++k) {
    const std::size_t j = rng() % bdds.size();
    const BddId f = bdds[k], g = bdds[j];
    const Table& tf = tables[k];
    const Table not_tg = negate(tables[j]);
    EXPECT_EQ(table_of(m, f), tf) << "expr " << k;

    // Complement edges: negation is free and an involution.
    const std::size_t nodes = m.node_table_size();
    EXPECT_EQ(m.lnot(m.lnot(f)), f);
    EXPECT_EQ(table_of(m, m.lnot(f)), negate(tf));
    EXPECT_EQ(m.node_table_size(), nodes);

    std::vector<int> q;
    for (int v = 0; v < nv; ++v) {
      if (rng() % 2) q.push_back(v);
    }
    EXPECT_EQ(table_of(m, m.exists(f, q)), exists_table(tf, q));
    EXPECT_EQ(table_of(m, m.exists(m.lnot(f), q)), exists_table(negate(tf), q));
    const BddId rel = m.and_exists(m.lnot(f), m.lnot(g), q);
    EXPECT_EQ(table_of(m, rel),
              exists_table(zip(negate(tf), not_tg, std::logical_and<>()), q));
    EXPECT_EQ(rel, m.exists(m.land(m.lnot(f), m.lnot(g)), q));

    // An image step as the engines take it: quantify inputs and present
    // state, then rename next -> present (the order-preserving mk path).
    const BddId img = m.and_exists(f, m.lnot(g), image_quantify);
    const Table timg = exists_table(zip(tf, not_tg, std::logical_and<>()),
                                    image_quantify);
    EXPECT_EQ(table_of(m, m.rename(img, next_to_present)),
              rename_table(timg, nv, next_to_present));
    EXPECT_EQ(table_of(m, m.rename(m.lnot(f), next_to_present)),
              rename_table(negate(tf), nv, next_to_present));
    // A swap reverses variable order, so it must take the ite fallback.
    EXPECT_EQ(table_of(m, m.rename(m.lnot(f), swap)),
              rename_table(negate(tf), nv, swap));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddTruthTable, ::testing::Range(0, 12));

// One manager through a long random op sequence that grows its tables
// mid-recursion in every kind of operation.  The documented growth policy
// (1024 slots, doubled once more than half full) grows the unique table
// and the cache when the node count passes 512, 1024, 2048, ...  Ahead of
// each such boundary the sequence runs random operations of every kind,
// whose cache stores overwrite colliding slots throughout; then it pads
// the node table to the boundary one node at a time and applies the
// boundary's operation kind to fresh operands, so the grow lands inside
// that kind's recursion.  Every result must match its truth table, and
// under ASan a node or cache reference held across a grow fails the run.
TEST(Bdd, LongRandomSequenceGrowsTablesMidRecursion) {
  const int nv = 8;
  const int kinds = 8;
  std::mt19937 rng(1);
  BddManager m(nv);
  struct Operand {
    BddId f = 0;
    Table t;
  };
  std::vector<Operand> pool;
  for (int v = 0; v < nv; ++v) pool.push_back({m.var(v), var_table(nv, v)});
  std::vector<int> next_to_present, swap;
  for (int v = 0; v < nv; ++v) {
    next_to_present.push_back(v - v % 2);
    swap.push_back(nv - 1 - v);
  }

  // A pool member, complemented at random.
  auto pick = [&]() {
    const Operand& x = pool[rng() % pool.size()];
    if (rng() % 2 == 0) return x;
    return Operand{m.lnot(x.f), negate(x.t)};
  };
  // A fresh random and/or/xor chain over every variable.
  auto fresh = [&]() {
    Operand x{m.false_bdd(), Table(std::size_t{1} << nv, false)};
    for (int v = 0; v < nv; ++v) {
      Operand lit{m.var(v), var_table(nv, v)};
      if (rng() % 2 != 0) lit = {m.lnot(lit.f), negate(lit.t)};
      switch (rng() % 3) {
        case 0:
          x = {m.land(x.f, lit.f), zip(x.t, lit.t, std::logical_and<>())};
          break;
        case 1:
          x = {m.lor(x.f, lit.f), zip(x.t, lit.t, std::logical_or<>())};
          break;
        default:
          x = {m.lxor(x.f, lit.f), zip(x.t, lit.t, std::not_equal_to<>())};
          break;
      }
    }
    return x;
  };
  // Applies operation `kind`; the result joins the pool and must match its
  // brute-force truth table.
  auto run = [&](int kind, const Operand& a, const Operand& b,
                 const Operand& c) {
    std::vector<int> q;
    for (int v = 0; v < nv; ++v) {
      if (rng() % 4 == 0) q.push_back(v);
    }
    Operand r;
    switch (kind) {
      case 0:
        r = {m.land(a.f, b.f), zip(a.t, b.t, std::logical_and<>())};
        break;
      case 1:
        r = {m.lxor(a.f, b.f), zip(a.t, b.t, std::not_equal_to<>())};
        break;
      case 2:
        r = {m.ite(a.f, b.f, c.f), Table(a.t.size())};
        for (std::size_t i = 0; i < r.t.size(); ++i) {
          r.t[i] = a.t[i] ? b.t[i] : c.t[i];
        }
        break;
      case 3:
        r = {m.exists(a.f, q), exists_table(a.t, q)};
        break;
      case 4:
        r = {m.and_exists(a.f, b.f, q),
             exists_table(zip(a.t, b.t, std::logical_and<>()), q)};
        break;
      case 5:  // order-preserving: the mk path
        r = {m.rename(a.f, next_to_present),
             rename_table(a.t, nv, next_to_present)};
        break;
      case 6: {
        const int v = static_cast<int>(rng() % nv);
        const bool value = rng() % 2 != 0;
        r = {m.cofactor(a.f, v, value), cofactor_table(a.t, v, value)};
        break;
      }
      default:  // order-reversing: the ite fallback
        r = {m.rename(a.f, swap), rename_table(a.t, nv, swap)};
        break;
    }
    pool.push_back(r);
    return table_of(m, r.f) == r.t;
  };
  auto run_random = [&](int kind) {
    const Operand a = pick(), b = pick(), c = pick();
    return run(kind, a, b, c);
  };
  // ite(x0, g, h) with g and h free of x0 adds at most one node.
  std::vector<BddId> pads;
  for (int k = 0; k < 64; ++k) {
    BddId f = m.false_bdd();
    for (int v = 1; v < nv; ++v) {
      f = rng() % 2 != 0 ? m.lxor(f, m.var(v)) : m.lor(f, m.nvar(v));
    }
    pads.push_back(f);
  }
  auto pad = [&]() {
    return pads[rng() % pads.size()] ^ static_cast<BddId>(rng() % 2);
  };

  const std::size_t margin = 256;  // more than one operation's new nodes
  for (std::size_t bound = 512, kind = 0; kind < kinds; bound *= 2) {
    while (m.node_table_size() + margin < bound) {
      ASSERT_TRUE(run_random(static_cast<int>(rng() % kinds)));
    }
    const Operand a = fresh(), b = fresh(), c = fresh();
    if (m.node_table_size() >= bound) continue;  // overshot: next boundary
    while (m.node_table_size() < bound) {
      const BddId g = pad(), h = pad();
      m.ite(m.var(0), g, h);
    }
    ASSERT_EQ(m.node_table_size(), bound);
    ASSERT_TRUE(run(static_cast<int>(kind), a, b, c)) << "kind " << kind;
    for (int tries = 0; m.node_table_size() == bound; ++tries) {
      ASSERT_LT(tries, 100) << "operation kind " << kind << " adds no node";
      ASSERT_TRUE(run_random(static_cast<int>(kind))) << "kind " << kind;
    }
    ++kind;
  }
}

// --- One manager reused across problems (BddManager::reset) ---------------

namespace {

/// What a caller can see of one problem: node_table_size() after each
/// operation, and each result's support and value under random
/// assignments.
struct Observed {
  std::vector<std::size_t> sizes;
  std::vector<std::vector<int>> supports;
  std::vector<bool> values;
  bool operator==(const Observed& o) const {
    return sizes == o.sizes && supports == o.supports && values == o.values;
  }
};

/// A seeded random problem over `nv` variables: `ops` operations of every
/// kind on a pool that starts with the variables, on `m` (fresh or just
/// reset).
Observed run_problem(BddManager& m, unsigned seed, int nv, int ops) {
  std::mt19937 rng(seed);
  std::vector<BddId> pool;
  for (int v = 0; v < nv; ++v) pool.push_back(m.var(v));
  std::vector<int> next_to_present, swap;
  for (int v = 0; v < nv; ++v) {
    next_to_present.push_back(v - v % 2);
    swap.push_back(nv - 1 - v);
  }
  auto pick = [&] {
    return pool[rng() % pool.size()] ^ static_cast<BddId>(rng() % 2);
  };
  Observed out;
  std::vector<bool> env(static_cast<std::size_t>(nv));
  for (int k = 0; k < ops; ++k) {
    const BddId a = pick(), b = pick(), c = pick();
    std::vector<int> q;
    for (int v = 0; v < nv; ++v) {
      if (rng() % 4 == 0) q.push_back(v);
    }
    const int v = static_cast<int>(rng() % static_cast<unsigned>(nv));
    BddId r = 0;
    switch (rng() % 8) {
      case 0: r = m.land(a, b); break;
      case 1: r = m.lxor(a, b); break;
      case 2: r = m.ite(a, b, c); break;
      case 3: r = m.exists(a, q); break;
      case 4: r = m.and_exists(a, b, q); break;
      case 5: r = m.rename(a, next_to_present); break;
      case 6: r = m.cofactor(a, v, rng() % 2 != 0); break;
      default: r = m.rename(a, swap); break;
    }
    pool.push_back(r);
    out.sizes.push_back(m.node_table_size());
    out.supports.push_back(m.support(r));
    for (int trial = 0; trial < 4; ++trial) {
      for (std::size_t x = 0; x < env.size(); ++x) env[x] = rng() % 2 != 0;
      out.values.push_back(m.eval(r, env));
    }
  }
  return out;
}

/// `m` (just reset to `nv` variables) must behave as a fresh manager on a
/// seeded problem.
void expect_matches_fresh(BddManager& m, unsigned seed, int nv, int ops) {
  BddManager fresh(nv);
  const Observed want = run_problem(fresh, seed, nv, ops);
  EXPECT_TRUE(run_problem(m, seed, nv, ops) == want)
      << "seed " << seed << ", " << nv << " vars, " << ops << " ops";
}

}  // namespace

TEST(BddReset, EachProblemMatchesAFreshManager) {
  // Problem sizes from a handful of nodes to tens of thousands, in an
  // order that runs small problems in tables a large one grew and large
  // ones that grow them further.
  BddManager m(1);
  std::mt19937 rng(7);
  for (int problem = 0; problem < 24; ++problem) {
    const int nv = 2 + static_cast<int>(rng() % 23);
    const int ops = problem % 3 == 0 ? 2000 : 5 + static_cast<int>(rng() % 300);
    m.reset(nv);
    expect_matches_fresh(m, 100 + static_cast<unsigned>(problem), nv, ops);
  }
}

TEST(BddReset, NoComputedCacheEntryCrossesAReset) {
  BddManager m(3);
  const BddId x0 = m.var(0), x1 = m.var(1);
  const BddId conj = m.land(x0, x1);
  m.lxor(x0, x1);
  m.reset(3);
  // The same handles now denote x1 and x2, and conj's old handle denotes
  // x0: a cached (and, x0, x1) or (xor, x0, x1) would answer wrongly.
  const BddId p = m.var(1), q = m.var(2), r = m.var(0);
  ASSERT_EQ(p, x0);
  ASSERT_EQ(q, x1);
  ASSERT_EQ(r, conj);
  const BddId pq_and = m.land(p, q), pq_xor = m.lxor(p, q);
  for (int a = 0; a < 8; ++a) {
    const std::vector<bool> env = {(a & 1) != 0, (a & 2) != 0, (a & 4) != 0};
    EXPECT_EQ(m.eval(pq_and, env), env[1] && env[2]) << a;
    EXPECT_EQ(m.eval(pq_xor, env), env[1] != env[2]) << a;
  }
  EXPECT_EQ(m.node_table_size(), 6u);  // x1, x2, x0 and the two results
}

TEST(BddReset, NodeBudgetIsPerProblem) {
  // AND over k of (x_k xor x_k+20) under this order keeps every x_k < 20
  // live: about 2^k nodes.
  auto blow_up = [](BddManager& m) {
    BddId f = m.true_bdd();
    for (int k = 0; k < 20 && m.node_table_size() < 10'000; ++k) {
      f = m.land(f, m.lxor(m.var(k), m.var(k + 20)));
    }
  };
  BddManager m(40);
  blow_up(m);
  ASSERT_GE(m.node_table_size(), 10'000u);
  m.reset(40, 100);
  EXPECT_THROW(blow_up(m), b::BddError);
  EXPECT_EQ(m.node_table_size(), 100u);
  m.reset(8, 100);
  expect_matches_fresh(m, 3, 8, 20);
}

TEST(BddReset, ResetAfterAnInterruptedOperation) {
  BddManager m(24);
  // A BddTimeout thrown from inside an apply's recursion.
  BddId f = m.true_bdd(), g = m.false_bdd();
  for (int k = 0; k < 12; ++k) {
    f = m.lxor(f, m.land(m.var(k), m.var(k + 12)));
    g = m.lor(g, m.lxor(m.var(2 * k), m.var(23 - k)));
  }
  m.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_THROW(m.land(f, g), b::BddTimeout);
  m.reset(12);
  expect_matches_fresh(m, 11, 12, 500);
  // A node-limit BddError, also mid-operation.
  m.reset(40, 500);
  EXPECT_THROW(
      {
        BddId h = m.true_bdd();
        for (int k = 0; k < 20; ++k) {
          h = m.land(h, m.lxor(m.var(k), m.var(k + 20)));
        }
      },
      b::BddError);
  m.reset(16);
  expect_matches_fresh(m, 12, 16, 500);
}
