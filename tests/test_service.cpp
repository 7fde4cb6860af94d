// Tests for the multi-circuit verification service (src/service/): the
// shared goal cache, manifest/sweep front ends, JSON output, failure
// isolation, and service-vs-serial result equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_gen/fig2.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "io/blif.h"
#include "kernel/goal_cache.h"
#include "kernel/terms.h"
#include "service/manifest.h"
#include "service/sweep.h"
#include "service/verify_service.h"
#include "testlib/gen.h"
#include "verify/parallel_verify.h"

namespace svc = eda::service;
namespace k = eda::kernel;

namespace {

svc::JobSpec job(const std::string& circuit, svc::Method method,
                 double timeout = 30.0) {
  svc::JobSpec spec;
  spec.circuit = circuit;
  spec.method = method;
  spec.timeout_sec = timeout;
  return spec;
}

/// (jobs, share) options — the old flat positional init, regrouped.
svc::ServiceOptions sopts(unsigned jobs, bool share = true) {
  svc::ServiceOptions opts;
  opts.jobs = jobs;
  opts.cache.share = share;
  return opts;
}

/// Write a netlist to a BLIF file under the test temp dir.
std::string write_blif_file(const eda::circuit::GateNetlist& net,
                            const std::string& stem) {
  std::string path = ::testing::TempDir() + "/" + stem + ".blif";
  std::ofstream(path) << eda::io::write_blif(net, stem);
  return path;
}

}  // namespace

// --- Kernel goal cache -----------------------------------------------------

TEST(GoalCache, DuplicateGoalsAreOneProofManyHits) {
  k::GoalCache<int> cache;
  k::Term goal = k::mk_eq(k::Term::var("x", k::bool_ty()),
                          k::Term::var("x", k::bool_ty()));
  int proofs = 0;
  for (int i = 0; i < 5; ++i) {
    bool hit = false;
    int v = cache.get_or_prove(goal, [&] { return ++proofs; }, &hit);
    EXPECT_EQ(v, 1);
    EXPECT_EQ(hit, i > 0);
  }
  EXPECT_EQ(proofs, 1);
  k::GoalCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 4u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_DOUBLE_EQ(st.hit_rate(), 0.8);
}

TEST(GoalCache, RejectedValuesStayUncachedAndRetry) {
  // Values failing the should_cache predicate (e.g. engine runs that blew
  // their resource budget) are returned but never published: a later
  // submission of the goal retries instead of inheriting the failure.
  k::GoalCache<int> cache;
  k::Term goal = k::Term::var("g", k::bool_ty());
  auto accept_nonneg = [](int v) { return v >= 0; };
  bool hit = true;
  int v = cache.get_or_prove_if(goal, [] { return -1; }, accept_nonneg,
                                &hit);
  EXPECT_EQ(v, -1);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The retry computes afresh and, succeeding, publishes.
  v = cache.get_or_prove_if(goal, [] { return 5; }, accept_nonneg, &hit);
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(hit);
  v = cache.get_or_prove_if(goal, [] { return 9; }, accept_nonneg, &hit);
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(GoalCache, AlphaEquivalentGoalsShareOneEntry) {
  // \x. x and \y. y are different interned nodes but alpha-equal: the
  // cache must treat them as one goal.
  k::GoalCache<int> cache;
  k::Term x = k::Term::var("x", k::bool_ty());
  k::Term y = k::Term::var("y", k::bool_ty());
  k::Term idx = k::Term::abs(x, x);
  k::Term idy = k::Term::abs(y, y);
  ASSERT_FALSE(idx.identical(idy));
  ASSERT_TRUE(idx == idy);
  cache.get_or_prove(idx, [] { return 7; });
  bool hit = false;
  EXPECT_EQ(cache.get_or_prove(idy, [] { return 8; }, &hit), 7);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- Method / manifest / sweep front ends ----------------------------------

TEST(ServiceFrontEnd, MethodNamesRoundTrip) {
  for (svc::Method m :
       {svc::Method::Hash, svc::Method::Match, svc::Method::Eijk,
        svc::Method::EijkPlus, svc::Method::Smv, svc::Method::Sis}) {
    std::optional<svc::Method> back = svc::parse_method(svc::method_name(m));
    ASSERT_TRUE(back.has_value()) << svc::method_name(m);
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(svc::parse_method("bmc").has_value());
}

TEST(ServiceFrontEnd, ManifestParsing) {
  std::string text =
      "# full-line comment\n"
      "\n"
      "fig2:4    eijk\n"
      "mult:8    hash   timeout=2.5 name=m8   # trailing comment\n"
      "pipe:4:2  match  seed=9\n";
  std::vector<svc::JobSpec> specs = svc::parse_manifest_string(text);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].circuit, "fig2:4");
  EXPECT_EQ(specs[0].method, svc::Method::Eijk);
  EXPECT_EQ(specs[1].name, "m8");
  EXPECT_DOUBLE_EQ(specs[1].timeout_sec, 2.5);
  EXPECT_EQ(specs[2].seed, 9u);
  EXPECT_EQ(specs[2].method, svc::Method::Match);

  EXPECT_THROW(svc::parse_manifest_string("fig2:4\n"), svc::ServiceError);
  EXPECT_THROW(svc::parse_manifest_string("fig2:4 warp\n"),
               svc::ServiceError);
  EXPECT_THROW(svc::parse_manifest_string("fig2:4 eijk timeout\n"),
               svc::ServiceError);
  // Strict value parsing: trailing garbage and wrapped seeds are errors,
  // not silent near-misses.
  EXPECT_THROW(svc::parse_manifest_string("fig2:4 eijk timeout=1O\n"),
               svc::ServiceError);
  EXPECT_THROW(svc::parse_manifest_string("fig2:4 eijk seed=-1\n"),
               svc::ServiceError);
  EXPECT_THROW(svc::parse_manifest_string("fig2:4 eijk seed=5000000000\n"),
               svc::ServiceError);
}

TEST(ServiceFrontEnd, HashInsideTokenIsNotAComment) {
  // Sweep-generated names contain '#'; only a '#' opening a token starts
  // a comment.
  std::vector<svc::JobSpec> specs = svc::parse_manifest_string(
      "fig2:4 hash name=fig2:4/hash#0 timeout=30  # real comment\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].name, "fig2:4/hash#0");
  EXPECT_DOUBLE_EQ(specs[0].timeout_sec, 30.0);
}

TEST(ServiceFrontEnd, SweepGridExpansion) {
  svc::SweepGrid grid = svc::parse_sweep_spec(
      "widths=2,4;depths=1,2;methods=hash,match;copies=2;timeout=3");
  ASSERT_EQ(grid.widths.size(), 2u);
  ASSERT_EQ(grid.depths.size(), 2u);
  ASSERT_EQ(grid.methods.size(), 2u);
  EXPECT_EQ(grid.copies, 2);
  std::vector<svc::JobSpec> specs = svc::make_sweep(grid);
  // width x depth x method x copies.
  ASSERT_EQ(specs.size(), 16u);
  EXPECT_EQ(specs[0].circuit, "fig2:2");
  EXPECT_EQ(specs[0].name, "fig2:2/hash#0");
  EXPECT_DOUBLE_EQ(specs[0].timeout_sec, 3.0);
  // Depth 2 rows use the deep-pipeline circuit.
  EXPECT_EQ(specs[4].circuit, "fig2deep:2:2");
  // Duplicates are adjacent copies of one obligation.
  EXPECT_EQ(specs[1].circuit, specs[0].circuit);
  EXPECT_EQ(specs[1].method, specs[0].method);

  EXPECT_THROW(svc::parse_sweep_spec("widths=0"), svc::ServiceError);
  EXPECT_THROW(svc::parse_sweep_spec("gauge=3"), svc::ServiceError);
}

// --- The service itself ----------------------------------------------------

TEST(VerifyService, SecondIdenticalObligationIsACacheHit) {
  svc::VerifyService service(sopts(1));
  // Serial submission: deterministic hit attribution.
  svc::JobResult first = service.run_one(job("fig2:4", svc::Method::Eijk));
  svc::JobResult again = service.run_one(job("fig2:4", svc::Method::Eijk));
  svc::JobResult other = service.run_one(job("fig2:4", svc::Method::Match));
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(again.ok) << again.error;
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_FALSE(first.theorem_cache_hit);
  EXPECT_FALSE(first.result_cache_hit);
  // Identical job: both the synthesis theorem and the engine verdict are
  // served from the shared cache.
  EXPECT_TRUE(again.theorem_cache_hit);
  EXPECT_TRUE(again.result_cache_hit);
  EXPECT_TRUE(again.equivalent);
  // Different method over the same circuit still shares the theorem.
  EXPECT_TRUE(other.theorem_cache_hit);
  svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.jobs, 3u);
  EXPECT_EQ(st.theorems.hits, 2u);
  EXPECT_EQ(st.theorems.misses, 1u);
  EXPECT_EQ(st.results.hits, 1u);
  EXPECT_EQ(st.results.misses, 1u);
}

TEST(VerifyService, SharedCacheOffProvesEveryObligation) {
  svc::VerifyService service(sopts(1, false));
  service.run_one(job("fig2:3", svc::Method::Hash));
  svc::JobResult again = service.run_one(job("fig2:3", svc::Method::Hash));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_FALSE(again.theorem_cache_hit);
  EXPECT_EQ(service.stats().theorems.hits, 0u);
  EXPECT_EQ(service.stats().theorems.misses, 0u);
}

TEST(VerifyService, ResultsKeepSubmitOrder) {
  svc::VerifyService service(sopts(4));
  std::vector<svc::JobSpec> specs;
  for (int n = 2; n <= 6; ++n) {
    svc::JobSpec spec = job("fig2:" + std::to_string(n), svc::Method::Hash);
    spec.name = "j" + std::to_string(n);
    specs.push_back(spec);
  }
  std::vector<svc::JobResult> results = service.run_batch(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].name, specs[i].name);
    EXPECT_TRUE(results[i].ok) << results[i].error;
    EXPECT_TRUE(results[i].equivalent);
  }
}

TEST(VerifyService, FailureIsolation) {
  svc::VerifyService service(sopts(2));
  std::vector<svc::JobSpec> specs{
      job("fig2:4", svc::Method::Eijk),
      job("warp:9", svc::Method::Eijk),            // unknown generator
      job("blif:/nonexistent,a", svc::Method::Smv),  // unreadable netlist
      job("blif:x,y", svc::Method::Hash),          // method needs RTL
      job("fig2:5", svc::Method::Match),
      job("fig2:4", svc::Method::Eijk, -1.0),      // invalid timeout
  };
  std::vector<svc::JobResult> results = service.run_batch(specs);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[0].equivalent);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("unknown circuit spec"),
            std::string::npos);
  EXPECT_FALSE(results[2].ok);
  EXPECT_FALSE(results[3].ok);
  EXPECT_NE(results[3].error.find("needs an RTL"), std::string::npos);
  // The good jobs around the failures are untouched.
  EXPECT_TRUE(results[4].ok) << results[4].error;
  EXPECT_TRUE(results[4].equivalent);
  EXPECT_FALSE(results[5].ok);
  EXPECT_NE(results[5].error.find("timeout"), std::string::npos);
  EXPECT_EQ(service.stats().failed, 4u);
}

TEST(VerifyService, BlifPairJobsVerifyFiles) {
  // Round-trip a retimed pair through BLIF files and check them as a
  // netlist-vs-netlist service job.
  eda::bench_gen::Fig2 fig2 = eda::bench_gen::make_fig2(3);
  eda::hash::FormalRetimeResult res =
      eda::hash::formal_retime(fig2.rtl, fig2.good_cut);
  std::string dir = ::testing::TempDir();
  std::string pa = dir + "/svc_a.blif";
  std::string pb = dir + "/svc_b.blif";
  {
    std::ofstream(pa) << eda::io::write_blif(
        eda::circuit::bit_blast(fig2.rtl), "a");
    std::ofstream(pb) << eda::io::write_blif(
        eda::circuit::bit_blast(res.retimed), "b");
  }
  svc::VerifyService service(sopts(1));
  svc::JobResult r =
      service.run_one(job("blif:" + pa + "," + pb, svc::Method::Eijk));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.equivalent);
  EXPECT_GT(r.ff, 0);
  EXPECT_FALSE(r.result_cache_hit);
  // The same pair again: the verdict is keyed on the structural netlist
  // hashes, so the engine does not run twice.
  svc::JobResult again =
      service.run_one(job("blif:" + pa + "," + pb, svc::Method::Eijk));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.result_cache_hit);
  EXPECT_TRUE(again.equivalent);
  EXPECT_EQ(service.stats().results.hits, 1u);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(VerifyService, WarmStartAcrossServiceInstances) {
  // The restart scenario: service 1 proves a mixed batch and persists its
  // caches; service 2 (fresh caches, as after a process restart) loads the
  // file and re-runs the identical batch with ZERO theorem misses — every
  // obligation is served by a theorem proved "in a previous life".
  std::string path = ::testing::TempDir() + "/svc_warm.bin";
  std::vector<svc::JobSpec> specs{
      job("fig2:3", svc::Method::Hash),
      job("fig2:4", svc::Method::Eijk),
      job("mult:3", svc::Method::Hash),
      job("fig2:4", svc::Method::Match),
  };
  {
    svc::VerifyService cold(sopts(2));
    std::vector<svc::JobResult> results = cold.run_batch(specs);
    for (const svc::JobResult& r : results) ASSERT_TRUE(r.ok) << r.error;
    cold.save_cache(path);
  }
  svc::VerifyService warm(sopts(2));
  svc::CacheLoadResult lr = warm.load_cache(path);
  ASSERT_TRUE(lr.loaded) << lr.note;
  EXPECT_EQ(lr.theorems, 3u);  // fig2:3, fig2:4, mult:3
  EXPECT_GE(lr.verdicts, 1u);  // the completed eijk verdict
  std::vector<svc::JobResult> results = warm.run_batch(specs);
  for (const svc::JobResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.theorem_cache_hit) << r.name;
  }
  svc::ServiceStats st = warm.stats();
  EXPECT_EQ(st.theorems.misses, 0u);
  EXPECT_EQ(st.theorems.hits, specs.size());
  EXPECT_EQ(st.results.misses, 0u);
  std::remove(path.c_str());
}

TEST(VerifyService, WarmStartKeepsVerdictProvenanceHonest) {
  // Loaded entries must not inflate the statistics: a freshly loaded
  // service has zero hits/misses until traffic actually arrives.
  std::string path = ::testing::TempDir() + "/svc_honest.bin";
  {
    svc::VerifyService cold(sopts(1));
    cold.run_one(job("fig2:3", svc::Method::Hash));
    cold.save_cache(path);
  }
  svc::VerifyService warm(sopts(1));
  svc::CacheLoadResult lr = warm.load_cache(path);
  ASSERT_TRUE(lr.loaded) << lr.note;
  svc::ServiceStats st = warm.stats();
  EXPECT_EQ(st.theorems.hits, 0u);
  EXPECT_EQ(st.theorems.misses, 0u);
  EXPECT_EQ(st.theorems.entries, 1u);
  std::remove(path.c_str());
}

TEST(VerifyService, BatchMatchesSerialVerdicts) {
  // The parallel, cache-sharing service must produce exactly the verdicts
  // of the direct serial pipeline (formal_retime + run_check).
  std::vector<svc::JobSpec> specs;
  for (int n = 3; n <= 5; ++n) {
    specs.push_back(job("fig2:" + std::to_string(n), svc::Method::Eijk));
    specs.push_back(job("fig2:" + std::to_string(n), svc::Method::Sis));
  }
  svc::VerifyService service(sopts(4));
  std::vector<svc::JobResult> batched = service.run_batch(specs);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    int n = 3 + static_cast<int>(i) / 2;
    eda::bench_gen::Fig2 fig2 = eda::bench_gen::make_fig2(n);
    eda::hash::FormalRetimeResult res =
        eda::hash::formal_retime(fig2.rtl, fig2.good_cut);
    eda::circuit::GateNetlist ga = eda::circuit::bit_blast(fig2.rtl);
    eda::circuit::GateNetlist gb = eda::circuit::bit_blast(res.retimed);
    eda::verify::VerifyOptions opts;
    opts.timeout_sec = 30.0;
    eda::verify::Engine eng = (i % 2 == 0) ? eda::verify::Engine::Eijk
                                           : eda::verify::Engine::SisFsm;
    eda::verify::VerifyResult serial =
        eda::verify::run_check({&ga, &gb, eng, opts});
    ASSERT_TRUE(batched[i].ok) << batched[i].error;
    EXPECT_EQ(batched[i].completed, serial.completed) << "job " << i;
    EXPECT_EQ(batched[i].equivalent, serial.equivalent) << "job " << i;
    EXPECT_EQ(batched[i].ff, ga.ff_count());
  }
}

TEST(VerifyService, StreamingSubmitDrain) {
  svc::VerifyService service(sopts(2));
  service.submit(job("fig2:3", svc::Method::Hash));
  service.submit(job("fig2:4", svc::Method::Hash));
  std::vector<svc::JobResult> first = service.drain();
  ASSERT_EQ(first.size(), 2u);
  // The stream restarts empty; stats accumulate across drains.
  service.submit(job("fig2:3", svc::Method::Hash));
  std::vector<svc::JobResult> second = service.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].theorem_cache_hit);
  EXPECT_EQ(service.stats().jobs, 3u);
  EXPECT_TRUE(service.drain().empty());
}

// --- Incremental (cone-partitioned) blif-pair jobs -------------------------

namespace {

svc::ServiceOptions inc_opts(unsigned jobs = 1, bool share = true) {
  svc::ServiceOptions opts;
  opts.jobs = jobs;
  opts.cache.share = share;
  opts.incremental = true;
  return opts;
}

}  // namespace

TEST(IncrementalService, ReprovesOnlyTheChangedConeAcrossRestart) {
  using eda::testlib::ConeEdit;
  const int kCones = 5;
  eda::circuit::GateNetlist a =
      eda::testlib::random_netlist_multi(81, 5, 60, 3, kCones);
  eda::circuit::GateNetlist b = a;
  for (int i = 0; i < kCones; ++i) {
    b = eda::testlib::mutate_cone(b, static_cast<std::size_t>(i),
                                  ConeEdit::EquivalentOpaque);
  }
  std::string pa = write_blif_file(a, "inc_a");
  std::string pb = write_blif_file(b, "inc_b");
  std::string pe = write_blif_file(
      eda::testlib::mutate_cone(b, 3, ConeEdit::Equivalent), "inc_e");
  std::string cache = ::testing::TempDir() + "/inc_cache.bin";

  {
    svc::VerifyService cold(inc_opts());
    svc::JobResult r =
        cold.run_one(job("blif:" + pa + "," + pb, svc::Method::Eijk));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(r.cones, static_cast<std::size_t>(kCones));
    EXPECT_EQ(r.cones_reproved, static_cast<std::size_t>(kCones));
    EXPECT_EQ(r.cone_hits, 0u);
    EXPECT_FALSE(r.result_cache_hit);
    cold.save_cache(cache);
  }
  // Fresh service instance = process restart; only the cache file carries
  // over.  The replay of the 1-cone edit must re-prove exactly that cone.
  svc::VerifyService warm(inc_opts());
  ASSERT_TRUE(warm.load_cache(cache).loaded);
  svc::JobResult r =
      warm.run_one(job("blif:" + pa + "," + pe, svc::Method::Eijk));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.equivalent);
  EXPECT_EQ(r.cones, static_cast<std::size_t>(kCones));
  EXPECT_EQ(r.cones_reproved, 1u);
  EXPECT_EQ(r.cone_hits, static_cast<std::size_t>(kCones - 1));
  // And an untouched resubmission is a full cache hit.
  svc::JobResult same =
      warm.run_one(job("blif:" + pa + "," + pb, svc::Method::Eijk));
  EXPECT_TRUE(same.result_cache_hit);
  EXPECT_EQ(same.cones_reproved, 0u);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::remove(pe.c_str());
  std::remove(cache.c_str());
}

TEST(IncrementalService, NonequivNamesTheDifferingOutput) {
  using eda::testlib::ConeEdit;
  eda::circuit::GateNetlist a =
      eda::testlib::random_netlist_multi(83, 4, 40, 2, 4);
  eda::circuit::GateNetlist b =
      eda::testlib::mutate_cone(a, 2, ConeEdit::Different);
  std::string pa = write_blif_file(a, "neq_a");
  std::string pb = write_blif_file(b, "neq_b");
  svc::VerifyService service(inc_opts());
  svc::JobResult r =
      service.run_one(job("blif:" + pa + "," + pb, svc::Method::Eijk));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.counterexample, "out2");
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(IncrementalService, StitchedVerdictsAgreeWithWholeNetlistPath) {
  // The acceptance property: over a seeded corpus of edited pairs, the
  // cone-partitioned path and the whole-netlist path reach the same
  // verdict.
  using eda::testlib::ConeEdit;
  for (std::uint64_t seed : {101u, 102u, 103u}) {
    eda::circuit::GateNetlist a =
        eda::testlib::random_netlist_multi(seed, 4, 50, 3, 3);
    for (ConeEdit edit : {ConeEdit::Equivalent, ConeEdit::EquivalentOpaque,
                          ConeEdit::Different}) {
      eda::circuit::GateNetlist b = eda::testlib::mutate_cone(
          a, static_cast<std::size_t>(seed % 3), edit);
      std::string pa = write_blif_file(a, "agree_a");
      std::string pb = write_blif_file(b, "agree_b");
      svc::JobSpec spec = job("blif:" + pa + "," + pb, svc::Method::Eijk);
      svc::VerifyService inc(inc_opts());
      svc::VerifyService whole(sopts(1));
      svc::JobResult ri = inc.run_one(spec);
      svc::JobResult rw = whole.run_one(spec);
      ASSERT_TRUE(ri.ok) << ri.error;
      ASSERT_TRUE(rw.ok) << rw.error;
      EXPECT_EQ(ri.completed, rw.completed)
          << "seed " << seed << " edit " << static_cast<int>(edit);
      EXPECT_EQ(ri.equivalent, rw.equivalent)
          << "seed " << seed << " edit " << static_cast<int>(edit);
      std::remove(pa.c_str());
      std::remove(pb.c_str());
    }
  }
}

TEST(IncrementalService, InterfaceMismatchIsInvalidRequest) {
  // No positional pairing exists, whole or by cone: the job is rejected
  // before any tier or engine runs — one answer on every path, engine and
  // decomposition alike, and no retries.
  using eda::testlib::random_netlist_multi;
  for (bool outputs_differ : {true, false}) {
    // 2 outputs vs 1, or 2 inputs vs 3.
    int ni = outputs_differ ? 2 : 3;
    int no = outputs_differ ? 1 : 2;
    eda::circuit::GateNetlist a = random_netlist_multi(91, 2, 30, 2, 2);
    eda::circuit::GateNetlist b = random_netlist_multi(91, ni, 30, 2, no);
    std::string pa = write_blif_file(a, "mis_a");
    std::string pb = write_blif_file(b, "mis_b");
    std::string spec = "blif:" + pa + "," + pb;
    for (bool incremental : {false, true}) {
      for (svc::Method method : {svc::Method::Eijk, svc::Method::Sis}) {
        SCOPED_TRACE(svc::method_name(method));
        SCOPED_TRACE(incremental ? "incremental" : "whole pair");
        svc::VerifyService service(incremental ? inc_opts() : sopts(1));
        svc::JobResult r = service.run_one(job(spec, method));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.verdict, svc::VerdictClass::InvalidRequest);
        EXPECT_EQ(r.attempts, 0);
        EXPECT_EQ(r.cones, 0u);
        EXPECT_NE(r.error.find("interface mismatch"), std::string::npos);
      }
    }
    std::remove(pa.c_str());
    std::remove(pb.c_str());
  }
}

TEST(IncrementalService, NoSharedCacheStillStitchesWithoutCaching) {
  using eda::testlib::ConeEdit;
  eda::circuit::GateNetlist a =
      eda::testlib::random_netlist_multi(97, 4, 40, 2, 3);
  eda::circuit::GateNetlist b =
      eda::testlib::mutate_cone(a, 0, ConeEdit::EquivalentOpaque);
  std::string pa = write_blif_file(a, "nc_a");
  std::string pb = write_blif_file(b, "nc_b");
  svc::VerifyService service(inc_opts(1, /*share=*/false));
  svc::JobSpec spec = job("blif:" + pa + "," + pb, svc::Method::Eijk);
  svc::JobResult r1 = service.run_one(spec);
  svc::JobResult r2 = service.run_one(spec);
  for (const svc::JobResult& r : {r1, r2}) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(r.cones, 3u);
    EXPECT_EQ(r.cones_reproved, 3u);  // nothing is ever served from cache
    EXPECT_EQ(r.cone_hits, 0u);
  }
  EXPECT_EQ(service.stats().results.hits, 0u);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(IncrementalService, DigestKeysInternAFewNodesPerCone) {
  // Each verdict key carries its two 64-bit cone digests as one interned
  // node apiece; as binary numerals they cost about 64 permanent term
  // nodes each.  After one warm-up job has interned the shared key parts
  // (tags, bounds), a fresh 16-cone pair with one edited cone may add at
  // most 10 live nodes per cone.
  using eda::testlib::ConeEdit;
  const int kCones = 16;
  auto pair_of = [](std::uint64_t seed, const std::string& stem) {
    eda::circuit::GateNetlist a =
        eda::testlib::random_netlist_multi(seed, 6, 90, 3, kCones);
    eda::circuit::GateNetlist b =
        eda::testlib::mutate_cone(a, 5, ConeEdit::EquivalentOpaque);
    return "blif:" + write_blif_file(a, stem + "_a") + "," +
           write_blif_file(b, stem + "_b");
  };
  const std::string warm = pair_of(0x3a1, "keys_warm");
  const std::string fresh = pair_of(0x3a2, "keys_fresh");
  svc::VerifyService service(inc_opts());
  svc::JobResult w = service.run_one(job(warm, svc::Method::Eijk));
  ASSERT_TRUE(w.ok) << w.error;
  const std::size_t before = k::Term::intern_stats().live_nodes;
  svc::JobResult r = service.run_one(job(fresh, svc::Method::Eijk));
  const std::size_t grown = k::Term::intern_stats().live_nodes - before;
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.equivalent);
  EXPECT_EQ(r.cones, static_cast<std::size_t>(kCones));
  EXPECT_LE(grown, static_cast<std::size_t>(10 * kCones));
  for (const std::string& spec : {warm, fresh}) {
    const std::string files = spec.substr(5);
    const std::size_t comma = files.find(',');
    std::remove(files.substr(0, comma).c_str());
    std::remove(files.substr(comma + 1).c_str());
  }
}

// --- JSON output -----------------------------------------------------------

TEST(ServiceJson, ShapeAndEscaping) {
  svc::VerifyService service(sopts(1));
  std::vector<svc::JobResult> results;
  results.push_back(service.run_one(job("fig2:4", svc::Method::Eijk)));
  results.push_back(service.run_one(job("warp:1", svc::Method::Eijk)));
  std::string json =
      svc::results_to_json(results, service.stats(), /*threads=*/1);

  for (const char* key :
       {"\"service\": \"eda_service\"", "\"jobs\": 2", "\"failed\": 1",
        "\"threads\": 1", "\"wall_sec\"", "\"cpu_sec\"",
        "\"theorem_cache\"", "\"result_cache\"", "\"hit_rate\"",
        "\"results\"", "\"method\": \"eijk\"", "\"ok\": true",
        "\"ok\": false", "\"equivalent\": true", "\"theorem_cache_hit\"",
        "\"result_cache_hit\"", "\"synth_sec\"", "\"verify_sec\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The error message carries the quoted circuit spec; it must arrive
  // escaped, leaving the JSON balanced.
  EXPECT_NE(json.find("unknown circuit spec"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}
