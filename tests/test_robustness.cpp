// Tests for the fault-tolerant service front: the deterministic fault
// injector, the classified-verdict taxonomy and retry/backoff guard, the
// admission queue (priority/FIFO schedule, backpressure, deadline
// expiry), and merge-on-save multi-process cache sharing (locking,
// stale-lock recovery, orphan sweeping, torn-write tolerance).  The
// concurrent cases (admission streams, two-writer merge) run on the TSan
// CI leg; the injector-driven cases run on ASan.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "io/blif.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "service/admission.h"
#include "service/cache_file.h"
#include "service/fault.h"
#include "service/guard.h"
#include "service/verify_service.h"
#include "testlib/gen.h"
#include "verify/common.h"

namespace k = eda::kernel;
namespace svc = eda::service;
namespace v = eda::verify;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

/// Every test that arms the process-wide injector runs under this fixture
/// so a failing assertion cannot leak an armed schedule into later tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { svc::FaultInjector::instance().reset(); }
  void TearDown() override { svc::FaultInjector::instance().reset(); }
};

svc::JobSpec job(const std::string& circuit, svc::Method method) {
  svc::JobSpec spec;
  spec.circuit = circuit;
  spec.method = method;
  spec.timeout_sec = 30.0;
  return spec;
}

/// (jobs, share) service options — the old flat positional init, regrouped.
svc::ServiceOptions sopts(unsigned jobs, bool share = true) {
  svc::ServiceOptions opts;
  opts.jobs = jobs;
  opts.cache.share = share;
  return opts;
}

/// Caches with `entries` goals keyed off a distinct per-writer stem, so
/// two writers' key sets are disjoint by construction.
void fill_disjoint(svc::TheoremCache& thms, svc::VerdictCache& verdicts,
                   const std::string& stem, int entries) {
  for (int i = 0; i < entries; ++i) {
    k::Term x = k::Term::var(stem + std::to_string(i), k::bool_ty());
    k::Term goal = k::mk_eq(x, x);
    thms.emplace(goal, k::Thm::refl(goal));
    v::VerifyResult r;
    r.completed = true;
    r.equivalent = true;
    verdicts.emplace(k::mk_eq(goal, goal), r);
  }
}

}  // namespace

// --- FaultInjector ---------------------------------------------------------

TEST_F(FaultTest, SameSeedReplaysTheExactFaultSequence) {
  svc::FaultInjector& f = svc::FaultInjector::instance();
  f.configure("seed=7,rate=0.5,sites=engine_bdd");
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) first.push_back(f.should_fail(svc::kFaultEngineBdd));
  f.configure("seed=7,rate=0.5,sites=engine_bdd");
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.should_fail(svc::kFaultEngineBdd), first[i]) << "visit " << i;
  }
  // The rate is honoured statistically (0.5 over 200 draws cannot
  // plausibly land outside [40, 160]) and the injected() counter agrees
  // with what the draws reported.
  std::uint64_t hits = 0;
  for (bool b : first) hits += b ? 1 : 0;
  EXPECT_GT(hits, 40u);
  EXPECT_LT(hits, 160u);
  EXPECT_EQ(f.injected(svc::kFaultEngineBdd), hits);
}

TEST_F(FaultTest, UnarmedSitesNeverFireAndResetDisarms) {
  svc::FaultInjector& f = svc::FaultInjector::instance();
  f.configure("seed=3,rate=1.0,sites=alloc");
  EXPECT_TRUE(f.enabled());
  EXPECT_TRUE(f.should_fail(svc::kFaultAlloc));
  EXPECT_FALSE(f.should_fail(svc::kFaultWorker));  // not in the schedule
  f.reset();
  EXPECT_FALSE(f.enabled());
  EXPECT_FALSE(f.should_fail(svc::kFaultAlloc));
  EXPECT_EQ(f.injected(svc::kFaultAlloc), 0u);
}

TEST_F(FaultTest, MalformedSpecsAreRejected) {
  svc::FaultInjector& f = svc::FaultInjector::instance();
  EXPECT_THROW(f.configure("rate=0.5"), svc::FaultSpecError);
  EXPECT_THROW(f.configure("seed=1,rate=2.0,sites=alloc"),
               svc::FaultSpecError);
  EXPECT_THROW(f.configure("seed=1,rate=0.5,sites=no_such_site"),
               svc::FaultSpecError);
  f.configure("off");
  EXPECT_FALSE(f.enabled());
}

// --- Retry/backoff guard ---------------------------------------------------

TEST(Guard, BackoffIsMonotoneDoublingAndCapped) {
  svc::RetryPolicy policy;
  policy.backoff_ms = 25.0;
  policy.backoff_cap_ms = 1000.0;
  double prev = 0.0;
  for (int kth = 1; kth <= 12; ++kth) {
    double b = svc::retry_backoff_ms(policy, kth);
    EXPECT_GE(b, prev) << "retry " << kth;
    EXPECT_LE(b, policy.backoff_cap_ms);
    prev = b;
  }
  EXPECT_DOUBLE_EQ(svc::retry_backoff_ms(policy, 1), 25.0);
  EXPECT_DOUBLE_EQ(svc::retry_backoff_ms(policy, 3), 100.0);
  EXPECT_DOUBLE_EQ(svc::retry_backoff_ms(policy, 12), 1000.0);
}

TEST(Guard, ClassifiesResultsAndExceptions) {
  v::VerifyResult r;
  r.completed = true;
  r.equivalent = true;
  EXPECT_EQ(svc::classify_result(r), svc::VerdictClass::Equiv);
  r.equivalent = false;
  EXPECT_EQ(svc::classify_result(r), svc::VerdictClass::Nonequiv);
  r.completed = false;
  r.failure = v::FailureKind::Timeout;
  EXPECT_EQ(svc::classify_result(r), svc::VerdictClass::Timeout);
  r.failure = v::FailureKind::ResourceExhausted;
  EXPECT_EQ(svc::classify_result(r), svc::VerdictClass::ResourceExhausted);
  r.failure = v::FailureKind::None;
  EXPECT_EQ(svc::classify_result(r), svc::VerdictClass::Unknown);

  EXPECT_EQ(svc::classify_exception(eda::bdd::BddError("pool")),
            svc::VerdictClass::ResourceExhausted);
  EXPECT_EQ(svc::classify_exception(std::bad_alloc()),
            svc::VerdictClass::ResourceExhausted);
  EXPECT_EQ(svc::classify_exception(std::runtime_error("boom")),
            svc::VerdictClass::InternalError);

  EXPECT_STREQ(svc::verdict_class_name(svc::VerdictClass::RetryLater),
               "RETRY_LATER");
  EXPECT_TRUE(svc::verdict_is_failure(svc::VerdictClass::Timeout));
  EXPECT_FALSE(svc::verdict_is_failure(svc::VerdictClass::Nonequiv));
  EXPECT_TRUE(svc::verdict_is_retryable(svc::VerdictClass::Timeout));
  EXPECT_FALSE(svc::verdict_is_retryable(svc::VerdictClass::InvalidRequest));
}

TEST(Guard, RetriesExactlyMaxRetriesWithAccountedBackoff) {
  svc::RetryPolicy policy;
  policy.max_retries = 3;
  policy.really_sleep = false;
  int calls = 0;
  svc::GuardedRun g = svc::run_guarded(
      policy, v::VerifyOptions{},
      [&](const v::VerifyOptions&) -> v::VerifyResult {
        ++calls;
        throw std::runtime_error("always fails");
      });
  EXPECT_EQ(calls, 4);  // max_retries + 1 attempts, no more, no fewer
  EXPECT_EQ(g.attempts, 4);
  EXPECT_EQ(g.verdict, svc::VerdictClass::InternalError);
  EXPECT_DOUBLE_EQ(g.backoff_ms, 25.0 + 50.0 + 100.0);
  EXPECT_FALSE(g.error.empty());
}

TEST(Guard, FirstTrySuccessMakesOneAttempt) {
  svc::RetryPolicy policy;
  policy.really_sleep = false;
  svc::GuardedRun g = svc::run_guarded(
      policy, v::VerifyOptions{}, [](const v::VerifyOptions&) {
        v::VerifyResult r;
        r.completed = true;
        r.equivalent = true;
        return r;
      });
  EXPECT_EQ(g.attempts, 1);
  EXPECT_DOUBLE_EQ(g.backoff_ms, 0.0);
  EXPECT_EQ(g.verdict, svc::VerdictClass::Equiv);
  EXPECT_TRUE(g.error.empty());
}

TEST(Guard, ResourceExhaustionEscalatesBudgetsUntilSuccess) {
  svc::RetryPolicy policy;
  policy.max_retries = 3;
  policy.escalation = 2.0;
  policy.really_sleep = false;
  v::VerifyOptions opts;
  opts.node_limit = 1000;
  std::vector<std::size_t> seen_limits;
  svc::GuardedRun g = svc::run_guarded(
      policy, opts, [&](const v::VerifyOptions& cur) {
        seen_limits.push_back(cur.node_limit);
        v::VerifyResult r;
        if (seen_limits.size() < 3) {
          r.completed = false;
          r.failure = v::FailureKind::ResourceExhausted;
          return r;
        }
        r.completed = true;
        r.equivalent = true;
        return r;
      });
  ASSERT_EQ(seen_limits.size(), 3u);
  EXPECT_EQ(seen_limits[0], 1000u);   // first run at the requested budget
  EXPECT_EQ(seen_limits[1], 2000u);   // each retry doubles the pool
  EXPECT_EQ(seen_limits[2], 4000u);
  EXPECT_EQ(g.attempts, 3);
  EXPECT_EQ(g.verdict, svc::VerdictClass::Equiv);
}

TEST(Guard, DeadlineStopsRetriesEarly) {
  svc::RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_ms = 50.0;
  policy.deadline_sec = 0.0001;  // far less than one backoff interval
  policy.really_sleep = false;
  int calls = 0;
  svc::GuardedRun g = svc::run_guarded(
      policy, v::VerifyOptions{},
      [&](const v::VerifyOptions&) -> v::VerifyResult {
        ++calls;
        throw std::runtime_error("fails");
      });
  EXPECT_EQ(calls, 1);  // no retry fits before the deadline
  EXPECT_EQ(g.verdict, svc::VerdictClass::InternalError);
}

TEST_F(FaultTest, WorkerFaultSiteFiresInsideTheGuard) {
  svc::FaultInjector::instance().configure(
      "seed=11,rate=1.0,sites=worker");
  svc::RetryPolicy policy;
  policy.max_retries = 1;
  policy.really_sleep = false;
  int calls = 0;
  svc::GuardedRun g = svc::run_guarded(
      policy, v::VerifyOptions{}, [&](const v::VerifyOptions&) {
        ++calls;
        return v::VerifyResult{};
      });
  // rate=1.0 faults every attempt before the engine body runs.
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(g.attempts, 2);
  EXPECT_EQ(g.verdict, svc::VerdictClass::InternalError);
  EXPECT_EQ(svc::FaultInjector::instance().injected(svc::kFaultWorker), 2u);
}

// --- Classified verdicts through the service -------------------------------

TEST_F(FaultTest, ServiceReportsClassifiedVerdictWithRetryAccounting) {
  svc::FaultInjector::instance().configure(
      "seed=5,rate=1.0,sites=engine_bdd");
  svc::ServiceOptions opts;
  opts.jobs = 1;
  opts.retry.max_retries = 1;
  opts.retry.really_sleep = false;
  svc::VerifyService service(opts);
  svc::JobResult r = service.run_one(job("fig2:3", svc::Method::Eijk));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.verdict, svc::VerdictClass::ResourceExhausted);
  EXPECT_EQ(r.attempts, 2);  // bounded by max_retries, and accounted
  EXPECT_GT(r.backoff_ms, 0.0);
  EXPECT_TRUE(svc::verdict_is_failure(r.verdict));
}

namespace {

/// Arm `faults`, then run one incremental blif-pair job whose cone 0
/// carries an opaque equivalent edit (it defeats the miter fold and the
/// simulator, so it must reach the engine) while the other two cones are
/// untouched; max_retries 1.
svc::JobResult run_opaque_cone_job(const std::string& faults) {
  eda::circuit::GateNetlist a =
      eda::testlib::random_netlist_multi(61, 4, 40, 2, 3);
  eda::circuit::GateNetlist b = eda::testlib::mutate_cone(
      a, 0, eda::testlib::ConeEdit::EquivalentOpaque);
  std::string pa = temp_path("fault_inc_a.blif");
  std::string pb = temp_path("fault_inc_b.blif");
  std::ofstream(pa) << eda::io::write_blif(a, "a");
  std::ofstream(pb) << eda::io::write_blif(b, "b");
  svc::FaultInjector::instance().configure(faults);
  svc::ServiceOptions opts;
  opts.jobs = 1;
  opts.incremental = true;
  opts.retry.max_retries = 1;
  opts.retry.really_sleep = false;
  svc::VerifyService service(opts);
  std::string spec = "blif:" + pa + "," + pb;
  svc::JobResult r = service.run_one(job(spec, svc::Method::Eijk));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  return r;
}

}  // namespace

TEST_F(FaultTest, EngineFaultsReachIncrementalObligations) {
  // The cone that survives the cheap tiers runs under the retry guard like
  // any other obligation: its batch result is the first attempt, and the
  // injected pool failures exhaust the retry budget.
  svc::JobResult r = run_opaque_cone_job("seed=1,rate=1.0,sites=engine_bdd");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.verdict, svc::VerdictClass::ResourceExhausted);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.cones, 3u);
}

TEST_F(FaultTest, BatchedPoolFailureDegradesToSoloRuns) {
  // The shared-pool batch fails wholesale: every survivor re-runs alone
  // under the guard, slower but with the same verdict.
  svc::JobResult r = run_opaque_cone_job("seed=1,rate=1.0,sites=batch_pool");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.equivalent);
  EXPECT_EQ(r.verdict, svc::VerdictClass::Equiv);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(svc::FaultInjector::instance().injected(svc::kFaultBatchPool), 1u);
}

TEST_F(FaultTest, FaultsClearedTheSameJobCompletesEquiv) {
  svc::ServiceOptions opts;
  opts.jobs = 1;
  svc::VerifyService service(opts);
  svc::JobResult r = service.run_one(job("fig2:3", svc::Method::Eijk));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.equivalent);
  EXPECT_EQ(r.verdict, svc::VerdictClass::Equiv);
  EXPECT_EQ(r.attempts, 1);
}

// --- Unbounded logic depth -------------------------------------------------

TEST(DeepNetlist, ChainPairsGetVerdictsNotCrashes) {
  // One stack frame chain per level of logic used to overflow the reader
  // near 60,000 levels and take the whole service down with SIGSEGV.
  const int kDepth = 200000;
  std::string pa = temp_path("deep_a.blif");
  std::string pb = temp_path("deep_b.blif");
  std::ofstream(pa) << eda::io::write_blif(
      eda::testlib::inverter_chain(kDepth), "a");
  std::ofstream(pb) << eda::io::write_blif(
      eda::testlib::inverter_chain(kDepth + 1), "b");
  for (bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "whole pair");
    svc::ServiceOptions opts = sopts(1);
    opts.incremental = incremental;
    svc::VerifyService service(opts);
    svc::JobResult same =
        service.run_one(job("blif:" + pa + "," + pa, svc::Method::Eijk));
    ASSERT_TRUE(same.ok) << same.error;
    EXPECT_EQ(same.verdict, svc::VerdictClass::Equiv);
    svc::JobResult longer =
        service.run_one(job("blif:" + pa + "," + pb, svc::Method::Eijk));
    ASSERT_TRUE(longer.ok) << longer.error;
    EXPECT_EQ(longer.verdict, svc::VerdictClass::Nonequiv);
  }
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// --- Admission queue -------------------------------------------------------

TEST(Admission, DispatchIsPriorityOrderedFifoWithinLevel) {
  svc::VerifyService service(sopts(1));
  svc::AdmissionOptions aopts;
  aopts.streams = 1;           // one stream => the schedule is total
  aopts.start_paused = true;   // stage the whole queue before any dispatch
  svc::AdmissionQueue front(service, aopts);
  const int priorities[] = {0, 2, 1, 2, 0};
  for (int prio : priorities) {
    svc::JobSpec spec = job("fig2:3", svc::Method::Hash);
    spec.priority = prio;
    svc::Admission a = front.try_submit(spec);
    ASSERT_TRUE(a.accepted);
  }
  std::vector<svc::JobResult> results = front.drain();
  ASSERT_EQ(results.size(), 5u);
  for (const svc::JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.verdict, svc::VerdictClass::Equiv);
  }
  // Highest priority first; the two priority-2 jobs and the two
  // priority-0 jobs each keep their admission order.
  std::vector<std::size_t> expect = {1, 3, 2, 0, 4};
  EXPECT_EQ(front.dispatch_order(), expect);
}

TEST(Admission, TenantWeightedRoundRobinPreventsFloodStarvation) {
  // Tenant "heavy" (weight 2) floods the queue before "light" (no
  // configured weight, defaults to 1) submits two jobs.  FIFO would make
  // light wait out the whole flood; WRR interleaves the round as
  // heavy,heavy,light — one tenant's flood delays but never starves its
  // peers, and within each tenant admission order is preserved.
  svc::VerifyService service(sopts(1));
  svc::AdmissionOptions aopts;
  aopts.streams = 1;           // one stream => the schedule is total
  aopts.start_paused = true;   // stage the whole queue before any dispatch
  aopts.tenant_weights["heavy"] = 2;
  svc::AdmissionQueue front(service, aopts);
  const char* tenants[] = {"heavy", "heavy", "heavy", "heavy",
                           "light", "light"};
  for (const char* tenant : tenants) {
    svc::JobSpec spec = job("fig2:3", svc::Method::Hash);
    spec.tenant = tenant;
    ASSERT_TRUE(front.try_submit(spec).accepted);
  }
  std::vector<svc::JobResult> results = front.drain();
  ASSERT_EQ(results.size(), 6u);
  for (const svc::JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.verdict, svc::VerdictClass::Equiv);
  }
  // Results carry their tenant label back to the client.
  EXPECT_EQ(results[0].tenant, "heavy");
  EXPECT_EQ(results[4].tenant, "light");
  std::vector<std::size_t> expect = {0, 1, 4, 2, 3, 5};
  EXPECT_EQ(front.dispatch_order(), expect);
}

TEST(Admission, SingleTenantWeightedRoundRobinIsPlainFifo) {
  // With one tenant per level the WRR machinery must reduce exactly to
  // the old FIFO schedule, whatever weight is configured.
  svc::VerifyService service(sopts(1));
  svc::AdmissionOptions aopts;
  aopts.streams = 1;
  aopts.start_paused = true;
  aopts.tenant_weights["default"] = 7;
  svc::AdmissionQueue front(service, aopts);
  for (int i = 0; i < 4; ++i) {
    svc::JobSpec spec = job("fig2:3", svc::Method::Hash);
    spec.tenant = "default";
    ASSERT_TRUE(front.try_submit(spec).accepted);
  }
  std::vector<svc::JobResult> results = front.drain();
  ASSERT_EQ(results.size(), 4u);
  std::vector<std::size_t> expect = {0, 1, 2, 3};
  EXPECT_EQ(front.dispatch_order(), expect);
}

TEST(Admission, FullQueueShedsLoadWithStructuredRetryLater) {
  svc::VerifyService service(sopts(1));
  svc::AdmissionOptions aopts;
  aopts.max_depth = 2;
  aopts.streams = 1;
  aopts.start_paused = true;  // nothing dispatches, so the queue stays full
  svc::AdmissionQueue front(service, aopts);
  ASSERT_TRUE(front.try_submit(job("fig2:3", svc::Method::Hash)).accepted);
  ASSERT_TRUE(front.try_submit(job("fig2:3", svc::Method::Hash)).accepted);
  svc::Admission rejected =
      front.try_submit(job("fig2:3", svc::Method::Hash));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.queue_depth, 2u);  // the client's backoff hint
  EXPECT_NE(rejected.reason.find("RETRY_LATER"), std::string::npos);
  EXPECT_EQ(front.depth(), 2u);
  // The two admitted jobs still run to completion.
  std::vector<svc::JobResult> results = front.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
}

TEST(Admission, DeadlineExpiredInQueueNeverReachesAnEngine) {
  svc::VerifyService service(sopts(1));
  svc::AdmissionOptions aopts;
  aopts.streams = 1;
  aopts.start_paused = true;
  svc::AdmissionQueue front(service, aopts);
  svc::JobSpec spec = job("fig2:3", svc::Method::Eijk);
  spec.deadline_ms = 1.0;
  ASSERT_TRUE(front.try_submit(spec).accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<svc::JobResult> results = front.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);  // the deadline was honoured, not violated
  EXPECT_FALSE(results[0].completed);
  EXPECT_EQ(results[0].verdict, svc::VerdictClass::DeadlineExpired);
  EXPECT_EQ(results[0].attempts, 0);  // no engine ever saw the job
}

// --- Merge-on-save cache sharing -------------------------------------------

TEST(MergeOnSave, TwoConcurrentWritersPreserveTheUnion) {
  std::string path = temp_path("merge_union.bin");
  std::remove(path.c_str());
  const int kEntries = 8;
  const int kRounds = 4;
  auto writer = [&](const std::string& stem) {
    svc::TheoremCache thms;
    svc::VerdictCache verdicts;
    fill_disjoint(thms, verdicts, stem, kEntries);
    svc::PersistentCacheFile file(path);
    for (int round = 0; round < kRounds; ++round) {
      file.save(thms, verdicts);
      std::this_thread::yield();
    }
  };
  std::thread a(writer, "left");
  std::thread b(writer, "right");
  a.join();
  b.join();
  // A fresh process sees every key both writers ever saved: merge-on-save
  // means a save race costs nothing, where last-writer-wins would have
  // dropped one whole side.
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  svc::CacheLoadResult r = svc::PersistentCacheFile(path).load(thms, verdicts);
  EXPECT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(r.theorems, 2u * kEntries);
  EXPECT_EQ(r.verdicts, 2u * kEntries);
}

TEST(MergeOnSave, StaleLockFromACrashedSaverIsBroken) {
  std::string path = temp_path("stale_lock.bin");
  std::remove(path.c_str());
  std::ofstream(path + ".lock") << "99999\n";  // a crashed saver's leftover
  svc::CacheFileOptions opts;
  opts.stale_lock_ms = 50;
  opts.lock_timeout_ms = 5000;
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_disjoint(thms, verdicts, "s", 2);
  svc::PersistentCacheFile file(path, opts);
  EXPECT_NO_THROW(file.save(thms, verdicts));
  EXPECT_FALSE(file_exists(path + ".lock"));  // released after save
  svc::TheoremCache in_t;
  svc::VerdictCache in_v;
  EXPECT_TRUE(file.load(in_t, in_v).loaded);
}

TEST(MergeOnSave, HeldLockTimesOutWithCacheFileError) {
  std::string path = temp_path("held_lock.bin");
  std::remove(path.c_str());
  std::ofstream(path + ".lock") << "1\n";  // fresh: a live saver holds it
  svc::CacheFileOptions opts;
  opts.stale_lock_ms = 60000;
  opts.lock_timeout_ms = 100;
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_disjoint(thms, verdicts, "h", 1);
  svc::PersistentCacheFile file(path, opts);
  EXPECT_THROW(file.save(thms, verdicts), svc::CacheFileError);
  std::remove((path + ".lock").c_str());
}

TEST(MergeOnSave, LoadSweepsOrphanedTempFiles) {
  std::string path = temp_path("orphan_sweep.bin");
  std::remove(path.c_str());
  std::string orphan = path + ".tmp.424242.0";
  std::ofstream(orphan) << "half a cache";
  svc::CacheFileOptions opts;
  opts.orphan_tmp_ms = 0;  // everything qualifies as an orphan
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  svc::PersistentCacheFile(path, opts).load(thms, verdicts);
  EXPECT_FALSE(file_exists(orphan));
}

TEST_F(FaultTest, TornCacheWriteIsDiagnosedAsAColdStart) {
  std::string path = temp_path("torn_write.bin");
  std::remove(path.c_str());
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_disjoint(thms, verdicts, "t", 4);
  svc::PersistentCacheFile file(path);
  // The cache_write site truncates the payload mid-write — the torn file
  // still gets renamed into place, modelling a crash after rename of a
  // partially flushed temp.
  svc::FaultInjector::instance().configure(
      "seed=9,rate=1.0,sites=cache_write");
  file.save(thms, verdicts);
  svc::FaultInjector::instance().reset();
  svc::TheoremCache in_t;
  svc::VerdictCache in_v;
  svc::CacheLoadResult r = file.load(in_t, in_v);
  // Corruption never admits partial state: zero entries, with a note.
  EXPECT_FALSE(r.loaded);
  EXPECT_EQ(r.theorems, 0u);
  EXPECT_EQ(r.verdicts, 0u);
  EXPECT_FALSE(r.note.empty());
  // An intact save over the torn file recovers the store.
  file.save(thms, verdicts);
  svc::CacheLoadResult again = file.load(in_t, in_v);
  EXPECT_TRUE(again.loaded) << again.note;
  EXPECT_EQ(again.theorems, 4u);
}
