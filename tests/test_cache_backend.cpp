// Conformance battery for the CacheBackend seam (service/cache_backend.h):
// every backend — in-process, file-bound, remote (eda_cached client) — must
// carry the GoalCache accounting contract verbatim (1 miss + k-1 hits per
// goal, no matter the interleaving or where the entry was found), share
// entries across alpha-equivalent spellings, cold-start cleanly on schema
// skew and union entries on persist.  The remote-only section embeds a
// CacheServer so daemon kill/restart is deterministic: a dead daemon must
// never lose a verdict or produce a wrong one, only degrade.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "kernel/serialize.h"
#include "kernel/shard.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "service/cache_backend.h"
#include "service/cache_file.h"
#include "service/cache_server.h"
#include "service/fault.h"
#include "service/remote_backend.h"
#include "service/remote_proto.h"
#include "testlib/gen.h"

namespace k = eda::kernel;
namespace svc = eda::service;
using eda::testlib::TermGen;
using eda::verify::VerifyResult;
using k::Term;
using k::Thm;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

VerifyResult verdict(int iterations, bool equivalent = true) {
  VerifyResult v;
  v.completed = true;
  v.equivalent = equivalent;
  v.iterations = iterations;
  v.seconds = 0.125 * iterations;
  v.peak = static_cast<std::size_t>(100 + iterations);
  return v;
}

/// One backend under test plus whatever keeps it alive (the embedded
/// daemon for the remote case, the bound file path for the file case).
struct Rig {
  std::unique_ptr<svc::CacheServer> server;  // remote only
  std::unique_ptr<svc::CacheBackend> backend;
  std::string file;  // file only

  ~Rig() {
    backend.reset();  // client closes its socket before the daemon dies
    if (server) server->stop();
  }
};

svc::RemoteBackendOptions remote_opts(const std::string& server,
                                      const std::string& tenant = "test",
                                      int pool = 4) {
  svc::RemoteBackendOptions o;
  o.server = server;
  o.tenant = tenant;
  // Keep the degradation window short so kill/restart tests converge in
  // milliseconds, not the production seconds.
  o.backoff_ms = 1.0;
  o.backoff_cap_ms = 50.0;
  o.pool = pool;
  return o;
}

std::unique_ptr<Rig> make_rig(const std::string& kind,
                              const std::string& tag) {
  auto rig = std::make_unique<Rig>();
  if (kind == "in-process") {
    rig->backend = std::make_unique<svc::InProcessBackend>();
  } else if (kind == "file") {
    rig->file = temp_path("backend_" + tag + ".cache");
    std::remove(rig->file.c_str());
    rig->backend = std::make_unique<svc::FileBackend>(rig->file);
  } else {
    // "remote" or "remote-pool1": the battery must hold with the pooled
    // client and with the serialized single-socket one.
    int pool = kind == "remote-pool1" ? 1 : 4;
    std::string sock = temp_path("cached_" + tag + ".sock");
    std::remove(sock.c_str());
    svc::CacheServerOptions sopts;
    sopts.listen = "unix:" + sock;
    sopts.shards = 4;
    rig->server = std::make_unique<svc::CacheServer>(sopts);
    rig->server->start();
    rig->backend = std::make_unique<svc::RemoteBackend>(
        remote_opts(sopts.listen, "test", pool));
  }
  return rig;
}

class BackendConformance : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Rig> rig_;
  svc::CacheBackend& backend() { return *rig_->backend; }

  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = std::string(GetParam()) + "_" + info->name();
    for (char& c : tag) {
      if (c == '/' || c == '-') c = '_';
    }
    rig_ = make_rig(GetParam(), tag);
  }
};

}  // namespace

// --- The accounting contract ------------------------------------------------

TEST_P(BackendConformance, KSubmissionsYieldOneMissAndKMinusOneHits) {
  svc::CacheBackend& b = backend();
  TermGen gen(0xacc7);
  Term goal = gen.random_goal(4);

  // Absent lookup counts NOTHING (the miss lands on the paired publish).
  bool was_hit = true;
  EXPECT_FALSE(b.lookup_theorem(goal, &was_hit).has_value());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(b.stats().theorems.hits, 0u);
  EXPECT_EQ(b.stats().theorems.misses, 0u);

  // The insert is the miss.
  auto [canonical, inserted] = b.publish_theorem(goal, Thm::refl(goal));
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(canonical.concl() == k::mk_eq(goal, goal));
  EXPECT_EQ(b.stats().theorems.misses, 1u);
  EXPECT_EQ(b.stats().theorems.hits, 0u);

  // Present lookups are hits; a redundant publish loses the "race" and is
  // a hit too.  4 submissions total: exactly 1 miss + 3 hits.
  EXPECT_TRUE(b.lookup_theorem(goal, &was_hit).has_value());
  EXPECT_TRUE(was_hit);
  EXPECT_TRUE(b.lookup_theorem(goal).has_value());
  auto [again, reinserted] = b.publish_theorem(goal, Thm::refl(goal));
  EXPECT_FALSE(reinserted);
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.theorems.misses, 1u);
  EXPECT_EQ(st.theorems.hits, 3u);
  EXPECT_EQ(st.theorems.entries, 1u);
}

TEST_P(BackendConformance, GetOrProveComposesWithoutDoubleCounting) {
  svc::CacheBackend& b = backend();
  TermGen gen(0x90f);
  Term goal = gen.random_goal(4);
  int proofs = 0;
  bool was_hit = true;
  Thm t1 = b.get_or_prove_theorem(
      goal,
      [&] {
        ++proofs;
        return Thm::refl(goal);
      },
      &was_hit);
  EXPECT_EQ(proofs, 1);
  EXPECT_FALSE(was_hit);
  Thm t2 = b.get_or_prove_theorem(
      goal,
      [&] {
        ++proofs;
        return Thm::refl(goal);
      },
      &was_hit);
  EXPECT_EQ(proofs, 1);  // served from the cache, not re-proved
  EXPECT_TRUE(was_hit);
  EXPECT_TRUE(t1.concl() == t2.concl());
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.theorems.misses, 1u);
  EXPECT_EQ(st.theorems.hits, 1u);
}

TEST_P(BackendConformance, VerdictContractMatchesTheoremContract) {
  svc::CacheBackend& b = backend();
  TermGen gen(0x7e5d);
  Term key = gen.random_goal(4);
  int proofs = 0;
  VerifyResult r1 = b.get_or_prove_verdict(
      key,
      [&] {
        ++proofs;
        return verdict(7);
      },
      [](const VerifyResult& v) { return v.completed; });
  VerifyResult r2 = b.get_or_prove_verdict(
      key,
      [&] {
        ++proofs;
        return verdict(999);  // must never be seen: the cache serves 7
      },
      [](const VerifyResult& v) { return v.completed; });
  EXPECT_EQ(proofs, 1);
  EXPECT_EQ(r1.iterations, 7);
  EXPECT_EQ(r2.iterations, 7);
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.verdicts.misses, 1u);
  EXPECT_EQ(st.verdicts.hits, 1u);
  EXPECT_EQ(st.verdicts.entries, 1u);
}

TEST_P(BackendConformance, UncacheableVerdictCountsMissWithoutInserting) {
  svc::CacheBackend& b = backend();
  TermGen gen(0xbad);
  Term key = gen.random_goal(4);
  VerifyResult blown;  // budget-blown: describes the machine, not the goal
  blown.completed = false;
  auto [returned, inserted] = b.publish_verdict(key, blown, false);
  EXPECT_FALSE(inserted);
  EXPECT_FALSE(returned.completed);
  EXPECT_EQ(b.stats().verdicts.misses, 1u);
  EXPECT_EQ(b.stats().verdicts.entries, 0u);
  // The key stays provable: the next submission is a fresh miss, not a
  // poisoned hit.
  EXPECT_FALSE(b.lookup_verdict(key).has_value());
}

// --- Alpha classes ------------------------------------------------------------

TEST_P(BackendConformance, AlphaEquivalentSpellingsShareOneEntry) {
  svc::CacheBackend& b = backend();
  // Same seed, different binder salts: pairwise alpha-equivalent goals
  // spelt differently (the test_serialize idiom).
  TermGen gen_u(0xa1fa, "u");
  TermGen gen_v(0xa1fa, "v");
  std::vector<Term> seen;  // the generator repeats goals; dedupe them
  int abs_pairs = 0, distinct = 0;
  for (int i = 0; i < 40; ++i) {
    Term a = gen_u.random_goal(3 + i % 5);
    Term bterm = gen_v.random_goal(3 + i % 5);
    ASSERT_TRUE(a == bterm) << "salt variants must be alpha-equal at " << i;
    bool dup = false;
    for (const Term& s : seen) {
      if (s == a) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    seen.push_back(a);
    if (!a.identical(bterm)) ++abs_pairs;
    b.publish_verdict(a, verdict(100 + distinct), true);
    bool was_hit = false;
    auto found = b.lookup_verdict(bterm, &was_hit);
    ASSERT_TRUE(found.has_value()) << "spelling v missed at " << i;
    EXPECT_TRUE(was_hit);
    EXPECT_EQ(found->iterations, 100 + distinct);
    ++distinct;
  }
  EXPECT_GT(abs_pairs, 3);  // the generator must exercise abstractions
  auto n = static_cast<std::uint64_t>(distinct);
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.verdicts.misses, n);
  EXPECT_EQ(st.verdicts.hits, n);
  EXPECT_EQ(st.verdicts.entries, n);
}

// --- Warm start / persist ----------------------------------------------------

TEST_P(BackendConformance, SchemaSkewIsADiagnosedColdStart) {
  svc::CacheBackend& b = backend();
  // A future-schema file: valid container, bumped schema field.
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  TermGen gen(0x5c4e);
  Term goal = gen.random_goal(4);
  thms.emplace(goal, Thm::refl(goal));
  std::string bytes = svc::PersistentCacheFile::encode(thms, verdicts);
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = static_cast<char>(bytes[4] + 1);  // header version field
  std::string path = temp_path("skewed_backend.cache");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  svc::CacheLoadResult r = b.warm_start(path);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.note.find("version"), std::string::npos);
  EXPECT_EQ(r.theorems, 0u);
  EXPECT_EQ(b.stats().theorems.entries, 0u);
  // And the backend stays fully usable after the cold start.
  auto [canonical, inserted] = b.publish_theorem(goal, Thm::refl(goal));
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(b.lookup_theorem(goal).has_value());
}

TEST_P(BackendConformance, WarmStartBypassesTheHitMissCounters) {
  // Warm-start admission is provenance, not workload: a loaded entry must
  // not inflate the hit rate before any obligation was served.
  std::string path = temp_path("warm_counters.cache");
  std::remove(path.c_str());
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  TermGen gen(0x3a3);
  Term goal = gen.random_goal(4);
  thms.emplace(goal, Thm::refl(goal));
  verdicts.emplace(k::mk_eq(goal, goal), verdict(3));
  svc::PersistentCacheFile(path).save(thms, verdicts);

  svc::CacheBackend& b = backend();
  svc::CacheLoadResult r = b.warm_start(path);
  ASSERT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(r.theorems, 1u);
  EXPECT_EQ(r.verdicts, 1u);
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.theorems.hits + st.theorems.misses, 0u);
  EXPECT_EQ(st.verdicts.hits + st.verdicts.misses, 0u);
  // The first real submission of a warm goal is a HIT — that is the whole
  // point of warm starting.
  EXPECT_TRUE(b.lookup_theorem(goal).has_value());
  EXPECT_EQ(b.stats().theorems.hits, 1u);
}

TEST_P(BackendConformance, PersistMergesWithEntriesAlreadyOnDisk) {
  std::string path = temp_path("merge_backend.cache");
  std::remove(path.c_str());
  TermGen gen(0x6e6);
  std::vector<Term> goals;
  for (int i = 0; i < 8; ++i) goals.push_back(gen.random_goal(4));

  // Another process already persisted the first half.
  {
    svc::TheoremCache thms;
    svc::VerdictCache verdicts;
    for (int i = 0; i < 4; ++i) thms.emplace(goals[i], Thm::refl(goals[i]));
    svc::PersistentCacheFile(path).save(thms, verdicts);
  }
  // This backend only ever saw the second half.
  svc::CacheBackend& b = backend();
  for (int i = 4; i < 8; ++i) b.publish_theorem(goals[i], Thm::refl(goals[i]));
  b.persist(path);

  // Union semantics: every key survives the save race.
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  svc::CacheLoadResult r = svc::PersistentCacheFile(path).load(thms, verdicts);
  ASSERT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(thms.stats().entries, 8u);
  for (const Term& g : goals) EXPECT_TRUE(thms.find(g).has_value());
}

// --- Concurrency ---------------------------------------------------------------

TEST_P(BackendConformance, ConcurrentPublishKeepsTheContract) {
  svc::CacheBackend& b = backend();
  TermGen gen(0xc0c);
  Term key = gen.random_goal(4);
  constexpr int kThreads = 4;
  std::atomic<int> inserted_count{0};
  std::vector<int> canonical_iters(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto [canonical, inserted] = b.publish_verdict(key, verdict(t), true);
      if (inserted) inserted_count.fetch_add(1);
      canonical_iters[static_cast<std::size_t>(t)] = canonical.iterations;
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one publisher won; everyone holds the winner's verdict.
  EXPECT_EQ(inserted_count.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(canonical_iters[static_cast<std::size_t>(t)],
              canonical_iters[0]);
  }
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.verdicts.misses, 1u);
  EXPECT_EQ(st.verdicts.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(st.verdicts.entries, 1u);
}

TEST_P(BackendConformance, BatchedVerdictOpsKeepTheContract) {
  svc::CacheBackend& b = backend();
  TermGen gen(0xba7c4);
  std::vector<Term> keys;
  while (keys.size() < 6) {
    Term t = gen.random_goal(4);
    bool dup = false;
    for (const Term& s : keys) {
      if (s == t) {
        dup = true;
        break;
      }
    }
    if (!dup) keys.push_back(t);
  }
  const auto n = static_cast<std::uint64_t>(keys.size());

  // A batched lookup of absent keys counts NOTHING, exactly like the
  // single-entry lookup (the misses land on the paired publish).
  std::vector<std::uint8_t> hits;
  std::vector<std::optional<VerifyResult>> found =
      b.lookup_verdicts(keys, &hits);
  ASSERT_EQ(found.size(), keys.size());
  ASSERT_EQ(hits.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(found[i].has_value()) << i;
    EXPECT_EQ(hits[i], 0) << i;
  }
  EXPECT_EQ(b.stats().verdicts.hits + b.stats().verdicts.misses, 0u);

  // One batched publish: each insert is a miss; entry 0 is uncacheable
  // (budget-blown) and counts its miss WITHOUT inserting.
  std::vector<svc::VerdictPublish> pubs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    VerifyResult v = verdict(100 + static_cast<int>(i), i % 2 == 0);
    if (i == 0) v.completed = false;
    pubs.push_back({keys[i], v, i != 0});
  }
  std::vector<std::pair<VerifyResult, bool>> published =
      b.publish_verdicts(pubs);
  ASSERT_EQ(published.size(), keys.size());
  EXPECT_FALSE(published[0].second);  // uncacheable: returned uninserted
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(published[i].second) << i;
    EXPECT_EQ(published[i].first.iterations, 100 + static_cast<int>(i));
  }
  svc::BackendStats st = b.stats();
  EXPECT_EQ(st.verdicts.misses, n);
  EXPECT_EQ(st.verdicts.hits, 0u);
  EXPECT_EQ(st.verdicts.entries, n - 1);

  // A second batched publish loses every race on the cached entries
  // (hits) and finally inserts key 0 (miss); the canonical values are the
  // FIRST publication's, never the re-submitted ones.
  std::vector<svc::VerdictPublish> again;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    again.push_back({keys[i], verdict(999), true});
  }
  published = b.publish_verdicts(again);
  EXPECT_TRUE(published[0].second);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_FALSE(published[i].second) << i;
    EXPECT_EQ(published[i].first.iterations, 100 + static_cast<int>(i));
    EXPECT_EQ(published[i].first.equivalent, i % 2 == 0);
  }
  st = b.stats();
  EXPECT_EQ(st.verdicts.misses, n + 1);
  EXPECT_EQ(st.verdicts.hits, n - 1);
  EXPECT_EQ(st.verdicts.entries, n);

  // And a batched lookup now hits every entry, was_hit mirroring the
  // single lookup's out-param per entry.
  found = b.lookup_verdicts(keys, &hits);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i].has_value()) << i;
    EXPECT_EQ(hits[i], 1) << i;
  }
  EXPECT_EQ(b.stats().verdicts.hits, (n - 1) + n);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values("in-process", "file", "remote",
                                           "remote-pool1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// --- Shard selection (the ROADMAP `h % kShards` trap) -----------------------

TEST(ShardMixer, EntropyPoorHashesStillSpread) {
  // Arena-aligned / structurally built hashes keep their entropy in the
  // low-middle bits; here every sample has 6 dead low bits.  The naive
  // selector collapses ALL of them into shard 0 — the exact trap — while
  // the multiply-mixer spreads them across every shard.
  std::set<std::size_t> mixed, naive;
  for (std::size_t i = 1; i <= 256; ++i) {
    std::size_t h = i * 64;
    mixed.insert(k::shard_index_of(h, 8));
    naive.insert(h % 8);
  }
  EXPECT_EQ(naive.size(), 1u);  // the trap, demonstrated
  EXPECT_EQ(mixed.size(), 8u);  // the fix, demonstrated
}

TEST(ShardMixer, RealAlphaHashesSpreadAcrossDaemonShards) {
  // The daemon's selector input is Term::hash() — check the distribution
  // it will actually see, at the daemon's default shard count.
  TermGen gen(0xd15c);
  std::vector<std::size_t> counts(8, 0);
  for (int i = 0; i < 400; ++i) {
    ++counts[k::shard_index_of(gen.random_goal(3 + i % 5).hash(), 8)];
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 10u) << "shard " << s << " starved";
  }
}

// --- Remote-specific: the shared tier and the failure story ------------------

namespace {

/// A daemon on a fresh unix socket plus N clients against it.
struct Fleet {
  std::string sock;
  std::unique_ptr<svc::CacheServer> server;

  explicit Fleet(const std::string& tag, std::string cache_file = "") {
    sock = temp_path("fleet_" + tag + ".sock");
    std::remove(sock.c_str());
    svc::CacheServerOptions sopts;
    sopts.listen = "unix:" + sock;
    sopts.shards = 4;
    sopts.cache_file = std::move(cache_file);
    server = std::make_unique<svc::CacheServer>(sopts);
  }

  std::unique_ptr<svc::RemoteBackend> client(const std::string& tenant,
                                             int pool = 4) {
    return std::make_unique<svc::RemoteBackend>(
        remote_opts("unix:" + sock, tenant, pool));
  }

  ~Fleet() {
    if (server) server->stop();
  }
};

}  // namespace

TEST(RemoteBackend, TwoClientsShareAlphaEquivalentEntriesThroughTheDaemon) {
  Fleet fleet("share");
  fleet.server->start();
  auto a = fleet.client("tenant-a");
  auto b = fleet.client("tenant-b");

  // Client A proves under one spelling; client B must hit under the other
  // — the daemon re-interns request terms, so the key is the alpha class,
  // not the wire bytes.
  TermGen gen_u(0x5a5a, "u");
  TermGen gen_v(0x5a5a, "v");
  std::vector<Term> seen;  // the generator repeats goals; dedupe them
  int distinct = 0;
  for (int i = 0; i < 10; ++i) {
    Term spelt_u = gen_u.random_goal(3 + i % 5);
    Term spelt_v = gen_v.random_goal(3 + i % 5);
    ASSERT_TRUE(spelt_u == spelt_v);
    bool dup = false;
    for (const Term& s : seen) {
      if (s == spelt_u) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    seen.push_back(spelt_u);
    a->publish_verdict(spelt_u, verdict(100 + distinct, distinct % 2 == 0),
                       true);
    bool was_hit = false;
    auto found = b->lookup_verdict(spelt_v, &was_hit);
    ASSERT_TRUE(found.has_value()) << "client B missed at " << i;
    EXPECT_TRUE(was_hit);
    EXPECT_EQ(found->iterations, 100 + distinct);
    EXPECT_EQ(found->equivalent, distinct % 2 == 0);
    ++distinct;
  }
  ASSERT_GT(distinct, 3);
  auto n = static_cast<std::uint64_t>(distinct);
  // B's obligations were all served by A's proofs: pure hits.
  svc::BackendStats bs = b->stats();
  EXPECT_EQ(bs.verdicts.hits, n);
  EXPECT_EQ(bs.verdicts.misses, 0u);
  EXPECT_EQ(bs.remote_failures, 0u);
  // The daemon saw both tenants.
  svc::CacheServerStats ds = fleet.server->stats();
  EXPECT_EQ(ds.tenants, 2u);
  EXPECT_EQ(ds.verdict_entries, n);
  EXPECT_GE(ds.lookup_hits, n);
}

TEST(RemoteBackend, DaemonDeathDegradesWithoutLosingOrCorruptingVerdicts) {
  Fleet fleet("kill");
  fleet.server->start();
  auto client = fleet.client("survivor");
  TermGen gen(0xdead);
  Term proved_before = gen.random_goal(4);
  client->publish_verdict(proved_before, verdict(11, false), true);
  ASSERT_TRUE(client->healthy());

  // Kill the daemon mid-use.
  fleet.server->stop();
  fleet.server.reset();

  // Everything proved before the death is still served, with the exact
  // same verdict (the fallback holds it; no wire round-trip involved).
  auto still = client->lookup_verdict(proved_before, nullptr);
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->iterations, 11);
  EXPECT_FALSE(still->equivalent);

  // New obligations keep working: the first one eats the transport error
  // (remote_failures), later ones ride the degradation window
  // (degraded_ops) and are served locally.  No exception ever escapes.
  Term proved_after = gen.random_goal(4);
  auto [canonical, inserted] =
      client->publish_verdict(proved_after, verdict(22), true);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(canonical.iterations, 22);
  for (int i = 0; i < 5; ++i) {
    Term fresh = gen.random_goal(4);
    client->publish_theorem(fresh, Thm::refl(fresh));
    EXPECT_TRUE(client->lookup_theorem(fresh, nullptr).has_value());
  }
  svc::BackendStats st = client->stats();
  EXPECT_GE(st.remote_failures, 1u);
  EXPECT_GE(st.degraded_ops, 1u);
  EXPECT_FALSE(client->healthy());
  EXPECT_FALSE(client->last_error().empty());
  // The accounting contract survived the outage: every publish above was
  // a first submission (miss), every lookup a hit.
  EXPECT_EQ(st.verdicts.misses, 2u);
  EXPECT_EQ(st.theorems.misses, 5u);
  EXPECT_EQ(st.theorems.hits, 5u);
}

TEST(RemoteBackend, ClientReconnectsAfterDaemonRestart) {
  std::string cache_file = temp_path("restart_daemon.cache");
  std::remove(cache_file.c_str());
  Fleet fleet("restart", cache_file);
  fleet.server->start();
  auto client = fleet.client("patient");
  TermGen gen(0x4e57a47);
  Term goal = gen.random_goal(4);
  client->publish_verdict(goal, verdict(42, false), true);

  // Daemon dies (final snapshot lands in its cache file) and comes back.
  fleet.server->stop();
  fleet.server.reset();
  Term during = gen.random_goal(4);
  client->publish_verdict(during, verdict(1), true);  // opens the window
  {
    svc::CacheServerOptions sopts;
    sopts.listen = "unix:" + fleet.sock;
    sopts.shards = 4;
    sopts.cache_file = cache_file;
    fleet.server = std::make_unique<svc::CacheServer>(sopts);
    svc::CacheLoadResult warm = fleet.server->start();
    ASSERT_TRUE(warm.loaded) << warm.note;
    EXPECT_GE(warm.verdicts, 1u);  // the pre-death verdict survived
  }

  // The client probes its way back to healthy once the backoff window
  // closes (fresh goals force wire traffic; fallback hits would not).
  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)client->lookup_verdict(gen.random_goal(4), nullptr);
    recovered = client->healthy();
  }
  EXPECT_TRUE(recovered) << client->last_error();

  // A brand-new client sees the pre-death verdict via the restarted
  // daemon's warm start: kill/restart kept every verdict sound.
  auto fresh = fleet.client("newcomer");
  auto found = fresh->lookup_verdict(goal, nullptr);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->iterations, 42);
  EXPECT_FALSE(found->equivalent);
}

TEST(RemoteBackend, DeadDaemonAtConstructionDegradesImmediately) {
  // No daemon ever listened here: the constructor's probe must classify
  // this instantly (RETRY_LATER semantics) instead of failing the first
  // real obligation.
  auto backend = std::make_unique<svc::RemoteBackend>(
      remote_opts("unix:" + temp_path("never_started.sock")));
  EXPECT_FALSE(backend->healthy());
  EXPECT_GE(backend->stats().remote_failures, 1u);
  // And it is still a fully functional (local) backend.
  TermGen gen(0x0ff);
  Term goal = gen.random_goal(4);
  EXPECT_TRUE(backend->publish_theorem(goal, Thm::refl(goal)).second);
  EXPECT_TRUE(backend->lookup_theorem(goal, nullptr).has_value());
}

TEST(RemoteBackend, PersistUnionsLocalFallbackWithDaemonSnapshot) {
  Fleet fleet("snapunion");
  fleet.server->start();
  auto a = fleet.client("writer-a");
  auto b = fleet.client("writer-b");
  TermGen gen(0x0410);
  Term only_a = gen.random_goal(4);
  Term only_b = gen.random_goal(4);
  a->publish_theorem(only_a, Thm::refl(only_a));
  b->publish_theorem(only_b, Thm::refl(only_b));

  // Client A persists: its own fallback has only_a, the daemon snapshot
  // contributes only_b — the file must hold the union.
  std::string path = temp_path("snapunion.cache");
  std::remove(path.c_str());
  a->persist(path);

  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  svc::CacheLoadResult r = svc::PersistentCacheFile(path).load(thms, verdicts);
  ASSERT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(thms.stats().entries, 2u);
  EXPECT_TRUE(thms.find(only_a).has_value());
  EXPECT_TRUE(thms.find(only_b).has_value());
}

// --- One wire shape: batch frames at one protocol version --------------------

namespace {

std::vector<Term> distinct_goals(TermGen& gen, std::size_t n, int size = 4) {
  std::vector<Term> keys;
  while (keys.size() < n) {
    Term t = gen.random_goal(size);
    bool dup = false;
    for (const Term& s : keys) {
      if (s == t) {
        dup = true;
        break;
      }
    }
    if (!dup) keys.push_back(t);
  }
  return keys;
}

/// A request header as any peer could send it: (version, opcode, tenant).
k::Encoder raw_request(std::uint32_t version, std::uint8_t op) {
  k::Encoder enc;
  enc.u32(version);
  enc.u8(op);
  enc.str("raw");
  return enc;
}

/// Send one request frame on a fresh connection to the daemon at `sock`
/// and return the reply's status byte, or -1 when no well-formed reply
/// came back.
int raw_status(const std::string& sock, const k::Encoder& request) {
  int fd = svc::connect_remote(svc::parse_remote_address("unix:" + sock),
                               1000, 5000);
  if (fd < 0) return -1;
  std::string reply;
  bool answered = svc::write_frame(fd, request.finish()) &&
                  svc::read_frame(fd, reply, svc::kMaxResponseFrame);
  ::close(fd);
  if (!answered) return -1;
  k::Decoder dec(reply);
  if (dec.u32() != svc::kRemoteProtoVersion) return -1;
  return dec.u8();
}

constexpr int kOk = static_cast<int>(svc::RemoteStatus::Ok);
constexpr int kError = static_cast<int>(svc::RemoteStatus::Error);

/// After a run of refused frames the daemon must still serve: one client
/// publishes, a fresh one hits.
void expect_daemon_still_serves(Fleet& fleet, std::uint64_t seed) {
  TermGen gen(seed);
  Term key = gen.random_goal(4);
  fleet.client("after-writer")->publish_verdict(key, verdict(31), true);
  bool was_hit = false;
  auto found = fleet.client("after-reader")->lookup_verdict(key, &was_hit);
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(found->iterations, 31);
}

}  // namespace

TEST(RemoteBackend, BatchedSweepIsOneFrameEachWayAcrossClients) {
  Fleet fleet("batchrt");
  fleet.server->start();
  auto writer = fleet.client("writer");
  TermGen gen(0xf4a3e5);
  std::vector<Term> keys = distinct_goals(gen, 10);
  Term extra_key = keys.back();
  keys.pop_back();
  Term goal = keys.back();
  keys.pop_back();

  // 8 fresh verdicts leave in ONE PublishBatch frame.
  std::uint64_t rt0 = writer->stats().remote_round_trips;
  std::vector<svc::VerdictPublish> pubs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pubs.push_back({keys[i], verdict(200 + static_cast<int>(i)), true});
  }
  writer->publish_verdicts(pubs);
  svc::BackendStats ws = writer->stats();
  EXPECT_EQ(ws.remote_round_trips, rt0 + 1);
  EXPECT_EQ(ws.verdicts.misses, 8u);

  // A second client's batched lookup of the same keys is ONE LookupBatch
  // frame, and the 1-miss/k-1-hit accounting holds across the fleet: the
  // writer took the 8 misses, the reader gets 8 pure hits.
  auto reader = fleet.client("reader");
  std::uint64_t rt1 = reader->stats().remote_round_trips;
  std::vector<std::uint8_t> hits;
  std::vector<std::optional<VerifyResult>> found =
      reader->lookup_verdicts(keys, &hits);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i].has_value()) << i;
    EXPECT_EQ(found[i]->iterations, 200 + static_cast<int>(i));
    EXPECT_EQ(hits[i], 1) << i;
  }
  svc::BackendStats rs = reader->stats();
  EXPECT_EQ(rs.remote_round_trips, rt1 + 1);
  EXPECT_EQ(rs.verdicts.hits, 8u);
  EXPECT_EQ(rs.verdicts.misses, 0u);

  // A single theorem or verdict is a batch of one: exactly one round trip
  // and one batch frame per op, whichever section it rides in.
  auto costs_one_frame = [&](svc::RemoteBackend& client, auto&& op) {
    std::uint64_t rt = client.stats().remote_round_trips;
    std::uint64_t frames = fleet.server->stats().batch_frames;
    op();
    EXPECT_EQ(client.stats().remote_round_trips, rt + 1);
    EXPECT_EQ(fleet.server->stats().batch_frames, frames + 1);
  };
  costs_one_frame(*writer, [&] {
    EXPECT_TRUE(writer->publish_theorem(goal, Thm::refl(goal)).second);
  });
  costs_one_frame(*reader, [&] {
    auto th = reader->lookup_theorem(goal, nullptr);
    ASSERT_TRUE(th.has_value());
    EXPECT_TRUE(th->concl() == k::mk_eq(goal, goal));
  });
  costs_one_frame(*writer, [&] {
    EXPECT_TRUE(writer->publish_verdict(extra_key, verdict(300), true).second);
  });
  costs_one_frame(*reader, [&] {
    auto v = reader->lookup_verdict(extra_key, nullptr);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->iterations, 300);
  });

  svc::CacheServerStats ds = fleet.server->stats();
  EXPECT_EQ(ds.batch_frames, 6u);
  EXPECT_EQ(ds.verdict_entries, 9u);
  EXPECT_EQ(ds.theorem_entries, 1u);
  EXPECT_EQ(ds.bad_requests, 0u);
}

TEST(CacheServer, ForeignVersionsAndRetiredOpcodesGetAnErrorReply) {
  Fleet fleet("wireshape");
  fleet.server->start();
  const auto lookup = static_cast<std::uint8_t>(svc::RemoteOp::LookupBatch);

  // Control: an empty LookupBatch at the one version is served.
  k::Encoder ok = raw_request(svc::kRemoteProtoVersion, lookup);
  ok.u32(0);
  ok.u32(0);
  EXPECT_EQ(raw_status(fleet.sock, ok), kOk);

  // The same well-formed frame stamped with any other version is refused.
  for (std::uint32_t version : {1u, 2u, svc::kRemoteProtoVersion + 1}) {
    k::Encoder req = raw_request(version, lookup);
    req.u32(0);
    req.u32(0);
    EXPECT_EQ(raw_status(fleet.sock, req), kError) << "version " << version;
  }
  // The retired per-entry opcodes 1-4 are refused at the current version,
  // with the one-term body they used to carry.
  TermGen gen(0x0dd);
  Term goal = gen.random_goal(4);
  for (std::uint8_t op = 1; op <= 4; ++op) {
    k::Encoder req = raw_request(svc::kRemoteProtoVersion, op);
    req.term(goal);
    EXPECT_EQ(raw_status(fleet.sock, req), kError) << "opcode " << int{op};
  }
  EXPECT_EQ(fleet.server->stats().bad_requests, 7u);
  expect_daemon_still_serves(fleet, 0x0dd1);
}

TEST(CacheServer, HugeBatchCountsGetAnErrorReplyNotACrash) {
  // Checksum-valid frames whose entry counts promise 2^32 - 1 entries and
  // carry none.  The daemon must answer each with Error and keep serving:
  // sizing a buffer from such a count throws std::bad_alloc, which must
  // not escape the handler thread and terminate the whole daemon.
  Fleet fleet("hugecount");
  fleet.server->start();
  constexpr std::uint32_t kHuge = 0xFFFFFFFFu;
  for (svc::RemoteOp op :
       {svc::RemoteOp::LookupBatch, svc::RemoteOp::PublishBatch}) {
    for (int section = 0; section < 2; ++section) {
      k::Encoder req =
          raw_request(svc::kRemoteProtoVersion, static_cast<std::uint8_t>(op));
      if (section == 0) {
        req.u32(kHuge);  // theorem section
      } else {
        req.u32(0);
        req.u32(kHuge);  // verdict section
      }
      EXPECT_EQ(raw_status(fleet.sock, req), kError)
          << "opcode " << static_cast<int>(op) << " section " << section;
    }
  }
  EXPECT_EQ(fleet.server->stats().bad_requests, 4u);
  expect_daemon_still_serves(fleet, 0x4a9e);
}

TEST(RemoteBackend, ErrorReplyCountsAsARemoteFailureAndDegrades) {
  // A daemon that refuses every request, as one built for another protocol
  // version does.  The client must count a remote failure and serve from
  // its fallback, never read the refusal as a miss.
  std::string sock = temp_path("refuser.sock");
  std::remove(sock.c_str());
  int lfd = svc::listen_remote(svc::parse_remote_address("unix:" + sock), 4,
                               nullptr);
  std::thread refuser([lfd] {
    int fd = ::accept(lfd, nullptr, nullptr);
    std::string request;
    while (fd >= 0 && svc::read_frame(fd, request, svc::kMaxRequestFrame)) {
      k::Encoder err;
      err.u32(svc::kRemoteProtoVersion);
      err.u8(static_cast<std::uint8_t>(svc::RemoteStatus::Error));
      err.str("refused by test daemon");
      if (!svc::write_frame(fd, err.finish())) break;
    }
    if (fd >= 0) ::close(fd);
  });
  {
    // pool=1: every exchange reuses the one connection the refuser serves.
    auto client = std::make_unique<svc::RemoteBackend>(
        remote_opts("unix:" + sock, "refused", /*pool=*/1));
    EXPECT_EQ(client->stats().remote_failures, 1u);  // the refused Ping
    EXPECT_FALSE(client->healthy());
    EXPECT_NE(client->last_error().find("refused by test daemon"),
              std::string::npos)
        << client->last_error();
    TermGen gen(0x4ef);
    Term key = gen.random_goal(4);
    EXPECT_TRUE(client->publish_verdict(key, verdict(8), true).second);
    // No ASSERT here: returning early would destroy the unjoined refuser.
    auto found = client->lookup_verdict(key, nullptr);
    EXPECT_EQ(found.value_or(VerifyResult{}).iterations, 8);
    svc::BackendStats st = client->stats();
    EXPECT_EQ(st.verdicts.misses, 1u);
    EXPECT_EQ(st.verdicts.hits, 1u);
  }
  ::shutdown(lfd, SHUT_RDWR);  // wakes accept() if the client never came
  refuser.join();
  ::close(lfd);
  std::remove(sock.c_str());
}

// --- Transport bugfixes: mid-frame stalls, handler reaping, stale sockets ----

TEST(RemoteBackend, MidFrameStallForcesReconnectWithSoundVerdicts) {
  Fleet fleet("stall");
  fleet.server->start();
  // pool=1 pins every exchange to the one socket the stall wedges.
  auto client = fleet.client("staller", /*pool=*/1);
  TermGen gen(0x57a11);
  Term before = gen.random_goal(4);
  client->publish_verdict(before, verdict(5, false), true);
  ASSERT_TRUE(client->healthy());

  // Wedge the next exchange mid-frame: header plus half the payload,
  // then nothing.  The client must classify it as a transport failure
  // and close the socket — NEVER leave the desynchronized stream around
  // for the next request to read garbage from.
  svc::FaultInjector::instance().configure(
      "seed=7,rate=1.0,sites=remote_stall");
  Term wedged = gen.random_goal(4);
  auto [v, inserted] = client->publish_verdict(wedged, verdict(6), true);
  EXPECT_TRUE(inserted);  // the local fallback still took it
  EXPECT_EQ(
      svc::FaultInjector::instance().injected(svc::kFaultRemoteStall), 1u);
  svc::BackendStats st = client->stats();
  EXPECT_GE(st.remote_failures, 1u);
  EXPECT_FALSE(client->healthy());
  svc::FaultInjector::instance().reset();

  // Recovery runs on a FRESH connection (the wedged fd is gone), and the
  // next exchanges return sound verdicts: a second client's entry comes
  // over the wire exactly as published.
  auto other = fleet.client("witness");
  Term shared = gen.random_goal(4);
  other->publish_verdict(shared, verdict(99, false), true);
  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)client->lookup_verdict(gen.random_goal(4), nullptr);
    recovered = client->healthy();
  }
  ASSERT_TRUE(recovered) << client->last_error();
  auto got = client->lookup_verdict(shared, nullptr);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->iterations, 99);
  EXPECT_FALSE(got->equivalent);
}

TEST(CacheServer, ReapsFinishedHandlersAcrossManyShortConnections) {
  // The accept loop must reap finished connection handlers as it goes: a
  // daemon fronting short-lived clients must not accumulate one dead
  // joinable thread per connection.
  Fleet fleet("soak");
  fleet.server->start();
  svc::RemoteAddress addr = svc::parse_remote_address("unix:" + fleet.sock);
  for (int i = 0; i < 200; ++i) {
    int fd = svc::connect_remote(addr, 1000, 2000);
    ASSERT_GE(fd, 0) << "connect " << i;
    k::Encoder enc = raw_request(svc::kRemoteProtoVersion,
                                 static_cast<std::uint8_t>(svc::RemoteOp::Ping));
    std::string reply;
    ASSERT_TRUE(svc::write_frame(fd, enc.finish())) << i;
    ASSERT_TRUE(svc::read_frame(fd, reply, svc::kMaxResponseFrame)) << i;
    ::close(fd);
    // Mid-soak the live-handler count must stay bounded by the reap
    // cadence, nowhere near the number of connections served.
    EXPECT_LT(fleet.server->stats().live_handlers, 64u) << "at " << i;
  }
  // Once the churn stops, the population drains to (near) zero.
  std::size_t live = 999;
  for (int i = 0; i < 250; ++i) {
    live = fleet.server->stats().live_handlers;
    if (live <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(live, 1u);
  EXPECT_GE(fleet.server->stats().connections, 200u);
}

TEST(CacheServer, RebindsAStaleSocketLeftByUncleanDeath) {
  // SIGKILL leaves the socket file behind.  The next boot must probe it,
  // find nothing listening, unlink, and bind — not die with EADDRINUSE.
  std::string sock = temp_path("stale_boot.sock");
  std::remove(sock.c_str());
  {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::snprintf(sa.sun_path, sizeof sa.sun_path, "%s", sock.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
    ::close(fd);  // no unlink: the stale file survives, nothing listens
  }
  svc::CacheServerOptions sopts;
  sopts.listen = "unix:" + sock;
  sopts.shards = 2;
  svc::CacheServer server(sopts);
  server.start();  // must not throw
  auto client = std::make_unique<svc::RemoteBackend>(
      remote_opts(sopts.listen, "reborn"));
  EXPECT_TRUE(client->healthy());
  client.reset();
  server.stop();
}

TEST(CacheServer, RefusesToStealALiveDaemonsSocket) {
  Fleet fleet("occupied");
  fleet.server->start();
  svc::CacheServerOptions sopts;
  sopts.listen = "unix:" + fleet.sock;
  sopts.shards = 2;
  svc::CacheServer usurper(sopts);
  EXPECT_THROW(usurper.start(), svc::RemoteCacheError);
  // And the incumbent still serves.
  auto client = fleet.client("loyal");
  EXPECT_TRUE(client->healthy());
}

TEST(CacheServer, StopWakesTheAcceptLoopAtOnce) {
  // An idle daemon's accept loop sits in a 200 ms poll; shutting the
  // listener down must wake it instead of waiting the poll out.
  Fleet fleet("stopfast");
  fleet.server->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // into poll
  auto t0 = std::chrono::steady_clock::now();
  fleet.server->stop();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_LT(ms, 100.0);
}

namespace {

/// The 4-byte little-endian length header of the frame format.
std::string frame_header(std::uint32_t len) {
  return {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
          static_cast<char>((len >> 16) & 0xff),
          static_cast<char>((len >> 24) & 0xff)};
}

}  // namespace

TEST(RemoteProto, LengthHeaderAloneCommitsAtMostOneChunk) {
  // A header promising the largest request frame, then EOF: the reader
  // must fail without having sized its buffer from the promise.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string hdr =
      frame_header(static_cast<std::uint32_t>(svc::kMaxRequestFrame));
  ASSERT_EQ(::write(sv[0], hdr.data(), hdr.size()),
            static_cast<ssize_t>(hdr.size()));
  ::close(sv[0]);
  std::string payload;
  EXPECT_FALSE(svc::read_frame(sv[1], payload, svc::kMaxRequestFrame));
  EXPECT_LE(payload.capacity(), svc::kFrameChunk);
  ::close(sv[1]);
}

TEST(RemoteProto, FramesRoundTripAcrossChunkBoundaries) {
  // The largest request frame, and sizes on either side of a chunk
  // boundary, each written by a peer thread and read back intact.
  for (std::size_t size :
       {std::size_t{0}, std::size_t{1}, svc::kFrameChunk - 1,
        svc::kFrameChunk, 3 * svc::kFrameChunk + 17, svc::kMaxRequestFrame}) {
    SCOPED_TRACE(size);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string sent(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      sent[i] = static_cast<char>((i * 131) ^ (i >> 16));
    }
    bool wrote = false;
    std::thread writer([&] { wrote = svc::write_frame(sv[0], sent); });
    std::string got;
    EXPECT_TRUE(svc::read_frame(sv[1], got, svc::kMaxRequestFrame));
    writer.join();
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(got == sent);
    ::close(sv[0]);
    ::close(sv[1]);
  }
}
