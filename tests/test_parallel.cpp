// Concurrency tests for PR 3: the sharded interner, the thread pool, the
// concurrent memo tables and the parallel verification pipeline.  These are
// also the designated ThreadSanitizer workload (CI runs them under
// -DEDA_TSAN=ON), so they favour many small racy windows over long runs.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_gen/fig2.h"
#include "hash/compile.h"
#include "hash/eval.h"
#include "hash/retime_step.h"
#include "kernel/memo.h"
#include "kernel/parallel.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "logic/bool_thms.h"
#include "testlib/gen.h"
#include "theories/num_theory.h"
#include "theories/numeral.h"
#include "verify/retime_match.h"

namespace k = eda::kernel;
using eda::testlib::build_family;
using k::Term;
using k::Type;

namespace {

constexpr int kThreads = 8;

}  // namespace

// --- Sharded interner ------------------------------------------------------

TEST(ConcurrentIntern, PointerIdentityAcrossThreads) {
  // N threads race to build the same overlapping term family; hash-consing
  // must give all of them the identical node for each structure.
  std::vector<std::vector<const void*>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&ids, t] { ids[static_cast<std::size_t>(t)] = build_family(200); });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(ids[0].size(), ids[static_cast<std::size_t>(t)].size());
    for (std::size_t i = 0; i < ids[0].size(); ++i) {
      EXPECT_EQ(ids[0][i], ids[static_cast<std::size_t>(t)][i])
          << "thread " << t << " interned a different node at step " << i;
    }
  }
}

TEST(ConcurrentIntern, StructuralEqualityIsPointerIdentity) {
  // Build the same deep structure on every thread through different
  // construction orders and check equality via both operator== and
  // identical().
  std::vector<Term> results;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Term a = Term::var("p", k::bool_ty());
      Term acc = a;
      // Odd threads build left-to-right, even threads build the subterms
      // first — same resulting structure.
      if (t % 2 == 0) {
        Term sub = k::mk_eq(a, a);
        acc = k::mk_eq(sub, sub);
      } else {
        acc = k::mk_eq(k::mk_eq(a, a), k::mk_eq(a, a));
      }
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(acc);
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[0].identical(results[i]));
    EXPECT_TRUE(results[0] == results[i]);
  }
}

TEST(ConcurrentIntern, ChurnStress) {
  // Heavy mixed workload: construction, cached free-vars, substitution,
  // alpha comparison and type interning from all threads at once, with
  // per-thread disjoint names mixed in to force concurrent *inserts* (not
  // just hits) in every shard.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 120; ++i) {
        Term x = Term::var("x", k::bool_ty());
        Term own = Term::var("t" + std::to_string(t) + "_" +
                                 std::to_string(i),
                             k::bool_ty());
        Term body = k::mk_eq(k::mk_eq(x, own), x);
        Term lam = Term::abs(x, body);
        // Free vars of \x. (x = own) = x are {own}.
        const k::FreeVars& fv = k::free_vars_set(lam);
        if (fv.size() != 1 || fv.count(own) == 0) {
          failures.fetch_add(1);
        }
        // Substitute through the shared spine.
        k::TermSubst theta;
        theta.emplace(own, x);
        Term sub = k::vsubst(theta, body);
        if (!(sub == k::mk_eq(k::mk_eq(x, x), x))) failures.fetch_add(1);
        // Alpha-equivalent but differently-spelt binder.
        Term y = Term::var("y_" + std::to_string(i % 5), k::bool_ty());
        Term lam2 = Term::abs(y, k::mk_eq(k::mk_eq(y, own), y));
        if (!(lam == lam2)) failures.fetch_add(1);
        // Theorem construction bumps the (atomic) global counter.
        k::Thm::refl(body);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentIntern, StatsAreSane) {
  auto before = Term::intern_stats();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] { build_family(50); });
  }
  for (std::thread& th : threads) th.join();
  auto after = Term::intern_stats();
  EXPECT_GE(after.live_nodes, before.live_nodes);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GE(after.arena_bytes, before.arena_bytes);
}

// --- Concurrent memo tables ------------------------------------------------

TEST(ConcurrentMemo, FirstInsertWinsAndIsShared) {
  k::ConcurrentMemo<int, int> memo;
  std::atomic<int> computed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int key = 0; key < 64; ++key) {
        int got = memo.get_or_compute(key, [&] {
          computed.fetch_add(1);
          return key * 10;
        });
        EXPECT_EQ(got, key * 10);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(memo.size(), 64u);
  // Races may compute a key a few extra times, but never unboundedly.
  EXPECT_GE(computed.load(), 64);
  EXPECT_LE(computed.load(), 64 * kThreads);
}

TEST(ConcurrentMemo, GroundEvalAcrossThreads) {
  eda::hash::init_hash_constants();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < 24; ++i) {
        Term sum = eda::thy::mk_arith("+", eda::thy::mk_numeral(i),
                                      eda::thy::mk_numeral(i + 1));
        k::Thm th = eda::hash::ground_eval(sum);
        auto v = eda::thy::dest_numeral(k::eq_rhs(th.concl()));
        if (!v || *v != 2 * i + 1) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentInit, RacingTheoryInitIsSafe) {
  // All threads hit the lazy theory initialisation paths at once; the
  // InitOnce guards must serialise the bodies without deadlocking on the
  // re-entrant init call graph.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      eda::logic::init_bool();
      eda::thy::init_numeral();
      eda::hash::init_hash_constants();
      // Touch each theory after init.
      (void)eda::thy::mk_numeral(42);
      (void)eda::logic::truth_tm();
    });
  }
  for (std::thread& th : threads) th.join();
  SUCCEED();
}

// --- Thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices) {
  k::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  k::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, pool);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  k::ThreadPool pool(4);
  EXPECT_THROW(
      k::parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          pool),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  k::ThreadPool pool(2);
  std::atomic<int> total{0};
  k::parallel_for(
      8,
      [&](std::size_t) {
        k::parallel_for(
            8, [&](std::size_t) { total.fetch_add(1); }, pool);
      },
      pool);
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelMapKeepsOrder) {
  k::ThreadPool pool(4);
  std::vector<int> xs(257);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<int>(i);
  std::vector<int> ys =
      k::parallel_map(xs, [](const int& x) { return x * 2; }, pool);
  ASSERT_EQ(ys.size(), xs.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    ASSERT_EQ(ys[i], static_cast<int>(i) * 2);
  }
}

// --- Parallel verification pipeline ----------------------------------------

TEST(ParallelVerify, BatchMatchesSerial) {
  // Retime a family of circuits, then verify all obligations in parallel
  // and compare with the serial verdicts.  This is the end-to-end path the
  // table drivers use, including concurrent kernel inference inside
  // formal_retime.
  std::vector<eda::bench_gen::Fig2> circuits;
  std::vector<eda::circuit::Rtl> retimed;
  for (int n = 2; n <= 5; ++n) {
    circuits.push_back(eda::bench_gen::make_fig2(n));
  }
  // Run the HASH retiming steps concurrently (kernel inference under
  // contention), keeping results in order.
  retimed.resize(circuits.size(), eda::circuit::Rtl{});
  k::parallel_for(circuits.size(), [&](std::size_t i) {
    retimed[i] =
        eda::hash::formal_retime(circuits[i].rtl, circuits[i].good_cut)
            .retimed;
  });
  std::vector<eda::verify::RetimeJob> jobs;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    jobs.push_back({&circuits[i].rtl, &retimed[i], 1});
  }
  std::vector<eda::verify::RetimeMatchResult> par =
      eda::verify::verify_retimings(jobs);
  ASSERT_EQ(par.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    eda::verify::RetimeMatchResult ser =
        eda::verify::verify_retiming(*jobs[i].a, *jobs[i].b, jobs[i].seed);
    EXPECT_EQ(par[i].equivalent, ser.equivalent) << "obligation " << i;
    EXPECT_TRUE(par[i].equivalent) << par[i].reason;
    EXPECT_EQ(par[i].lag, ser.lag);
  }
}
