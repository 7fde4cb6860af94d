#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/error.h"
#include "kernel/goal_cache.h"
#include "service/cache_backend.h"
#include "service/cache_file.h"
#include "service/guard.h"
#include "verify/parallel_verify.h"

namespace eda::service {

class ServiceError : public kernel::KernelError {
 public:
  explicit ServiceError(const std::string& what)
      : kernel::KernelError(what) {}
};

/// How a job's obligation is discharged.  `Hash` is the paper's own answer
/// (the synthesis step *is* the proof: the retiming theorem comes out of
/// the kernel and nothing further is checked); `Match` is the structural
/// retiming matcher of reference [8]; the remaining four are the post-hoc
/// model-checking engines of the tables.
enum class Method { Hash, Match, Eijk, EijkPlus, Smv, Sis };

const char* method_name(Method method);
std::optional<Method> parse_method(const std::string& name);

/// One verification job.  `circuit` picks the obligation:
///
///   fig2:N          figure-2 circuit at bitwidth N, the paper's cut
///   fig2deep:N:S    deep-pipeline variant, S incrementer stages, full cut
///   mult:N          serial fractional multiplier, maximal forward cut
///   ctrl:S:T        controller with S state bits / T timer bits
///   pipe:W:D        pipelined ALU, width W, depth D
///   iwls:NAME       a named iwls_benchmarks() entry (e.g. iwls:s344)
///   blif:A,B        two gate-level BLIF files checked against each other
///                   (engine methods only — there is no RTL to retime)
///
/// RTL-sourced jobs perform the formal HASH retiming step (theorem-cached
/// across the whole service); `hash` and `match` answer from it, and an
/// engine method lowers the job to ONE obligation, the original/retimed
/// pair.  A `blif:` job lowers to one obligation for the whole pair — or,
/// under ServiceOptions::incremental, one per output cone — after a check
/// that both sides have the same input and output counts (a mismatch is
/// INVALID_REQUEST before any tier runs).  Every obligation then climbs
/// the same rungs: verdict cache, structural identity, miter fold, sim
/// refutation, and the engine on a shared-pool batch under the retry
/// guard.  Verdicts are keyed on the compiled circuits (RTL) or on the
/// structural netlist / cone hashes (io/blif.h), so repeated — or
/// warm-started — submissions hit the cache.
struct JobSpec {
  std::string name;        ///< label in results; defaulted when empty
  std::string circuit;     ///< circuit spec, grammar above
  Method method = Method::Hash;
  double timeout_sec = 5.0;
  std::uint32_t seed = 1;  ///< Match co-simulation seed
  /// Admission scheduling (service/admission.h): higher priority runs
  /// first, FIFO within a priority level.
  int priority = 0;
  /// Wall-clock deadline from submission (0 = none).  A job still queued
  /// past its deadline is skipped with a DEADLINE_EXPIRED verdict; a job
  /// dispatched near it has its engine budget capped to what remains.
  double deadline_ms = 0.0;
  /// Per-job retry budget for classified retryable failures; -1 uses
  /// ServiceOptions::retry.max_retries.
  int max_retries = -1;
  /// Submitting tenant: drives admission fairness (weighted round-robin
  /// across tenants within a priority level) and labels remote-cache
  /// requests.  Empty uses CachePolicy::tenant.
  std::string tenant;
};

struct JobResult {
  std::string name;
  std::string circuit;
  std::string tenant;  ///< echoed from the spec (admission fairness audit)
  Method method = Method::Hash;
  bool ok = false;           ///< ran to completion without error
  std::string error;         ///< diagnostic when !ok
  bool completed = false;    ///< engine finished within resource bounds
  bool equivalent = false;   ///< verdict (valid only when completed)
  int ff = 0;                ///< flip-flops of the bit-blasted obligation
  int gates = 0;
  double synth_sec = 0.0;    ///< formal HASH step (tiny on a theorem hit)
  double verify_sec = 0.0;   ///< method/engine time
  double total_sec = 0.0;
  bool theorem_cache_hit = false;
  bool result_cache_hit = false;
  /// Cone accounting, populated only on the incremental blif-pair path
  /// (ServiceOptions::incremental): the job was decomposed into `cones`
  /// per-output obligations, of which `cone_hits` resolved from the shared
  /// verdict cache and `cones_reproved` were re-proved.  On a NONEQUIV
  /// verdict, `counterexample` names a differing primary output when one
  /// is known (the first NONEQUIV cone, or the simulator's witness).
  std::size_t cones = 0;
  std::size_t cone_hits = 0;
  std::size_t cones_reproved = 0;
  std::string counterexample;
  /// Simulation pre-filter accounting (sim/bitsim.h), on every engine
  /// path: `sim_refuted` counts obligations the pre-filter settled NONEQUIV
  /// before any BDD was built (0 or 1 for whole-netlist jobs, a cone count
  /// on the incremental path); `sim_vectors` totals the random stimulus
  /// spent, including on pairs that passed through to an engine.
  std::size_t sim_refuted = 0;
  std::uint64_t sim_vectors = 0;
  /// Classified verdict (service/guard.h): EQUIV/NONEQUIV for completed
  /// answers, a failure class (TIMEOUT, RESOURCE_EXHAUSTED,
  /// INTERNAL_ERROR, DEADLINE_EXPIRED, INVALID_REQUEST, ...) otherwise.
  VerdictClass verdict = VerdictClass::Unknown;
  /// Guarded-engine retry accounting: the most attempts any obligation
  /// made (0 when no guarded engine ran — cache hits, obligations a cheap
  /// tier settled, hash/match jobs) and the total backoff slept between
  /// them.
  int attempts = 0;
  double backoff_ms = 0.0;
};

struct ServiceStats {
  std::size_t jobs = 0;
  std::size_t failed = 0;
  kernel::GoalCacheStats theorems;  ///< shared retiming-theorem cache
  kernel::GoalCacheStats results;   ///< shared engine-verdict cache
  double wall_sec = 0.0;            ///< batch wall time (submit to drain)
  double cpu_sec = 0.0;             ///< process CPU over the same window
  std::string backend;              ///< CacheBackend::name() in use
  /// Remote-tier health (zero for in-process/file backends): transport
  /// failures seen and cache ops served locally during backoff windows.
  std::uint64_t remote_failures = 0;
  std::uint64_t degraded_ops = 0;
  /// Successful remote exchanges — a blif-pair job's budget is <= 2 of
  /// these (one LookupBatch + one PublishBatch).
  std::uint64_t remote_round_trips = 0;
};

/// Where the shared theorem/verdict caches live and how jobs reach them.
/// The service builds exactly one CacheBackend from this group:
///
///   server non-empty  -> RemoteBackend against an eda_cached daemon at
///                        `server` ("unix:/path" or "host:port"), wrapped
///                        around an in-process fallback so a dead daemon
///                        degrades instead of failing;
///   file non-empty    -> FileBackend bound to `file` (PR 8 merge-on-save
///                        semantics on every persist);
///   otherwise         -> InProcessBackend (today's behaviour).
struct CachePolicy {
  /// Share the caches across jobs.  Off = every job runs against its own
  /// empty in-process cache and proves its own obligations (the
  /// serial-loop baseline bench_service measures against); the backend
  /// above then only serves load_cache/save_cache.
  bool share = true;
  std::string file;   ///< bound cache file (FileBackend), "" = none
  CacheFileOptions file_options;
  std::string server; ///< eda_cached address (RemoteBackend), "" = none
  std::string tenant = "default";  ///< label on every remote request
  int remote_connect_timeout_ms = 1000;
  int remote_io_timeout_ms = 5000;
  /// Degradation backoff after a remote transport failure (capped
  /// exponential; see service/remote_backend.h).
  double remote_backoff_ms = 25.0;
  double remote_backoff_cap_ms = 2000.0;
  /// Remote connection pool size (--cache-pool): up to this many
  /// exchanges pipeline on distinct sockets.  1 = PR 9 single-socket
  /// semantics.
  int remote_pool = 4;
};

/// Bit-parallel simulation pre-filter (sim/bitsim.h): before an engine
/// builds any BDDs, drive both sides with `vectors` shared random vectors
/// (`frames` cycles each, flops starting at X) and settle the obligation
/// NONEQUIV — with a concrete counterexample — on any lane mismatch.
/// Sound against every engine's init semantics (the X init makes a
/// refutation hold from all initial register states), so the verdict is
/// cached under the same key an engine verdict would be.
struct SimPolicy {
  bool enabled = true;
  int vectors = 256;
  int frames = 4;
  std::uint64_t seed = 0x5eedf17e;
};

/// Admission-front defaults the service front (tools/eda_service.cpp)
/// maps onto service/admission.h: queue capacity and the per-tenant
/// weighted-round-robin shares used within each priority level.
struct QueuePolicy {
  std::size_t depth = 256;
  /// tenant -> WRR weight (dispatches per round); absent tenants get 1.
  std::map<std::string, unsigned> tenant_weights;
};

struct ServiceOptions {
  /// Concurrent job streams (pool worker threads); 0 = hardware default.
  unsigned jobs = 0;
  /// Cache placement/sharing (the CacheBackend seam).  NOTE: deliberately
  /// the second member and NOT a bool, so pre-regroup positional inits
  /// like `{1, true}` fail to compile instead of silently changing
  /// meaning.
  CachePolicy cache;
  SimPolicy sim;
  /// Retry policy for classified retryable engine failures (TIMEOUT,
  /// RESOURCE_EXHAUSTED, INTERNAL_ERROR — see service/guard.h): up to
  /// `retry.max_retries` extra attempts per obligation, budgets escalating
  /// by `retry.escalation` per attempt, capped exponential backoff between
  /// them.  `retry.really_sleep = false` (tests) accounts the backoff
  /// without sleeping it.
  RetryPolicy retry;
  QueuePolicy queue;
  /// Cone-partitioned incremental verification for blif-pair jobs: each
  /// pair lowers to one obligation per primary output (verify/cone.h)
  /// instead of one for the whole pair.  Unchanged cones resolve from the
  /// persistent verdict cache keyed on (cone_hash_a, cone_hash_b, engine,
  /// bounds), only changed cones reach the tiers and the engine, and the
  /// per-cone verdicts are stitched back into the whole-design verdict.
  /// Pairs without outputs stay whole.  RTL jobs are unaffected.
  bool incremental = false;
};

/// A long-running multi-circuit verification service: jobs are submitted as
/// a stream, scheduled on a work-stealing pool, and share one
/// alpha-hash-keyed goal cache, so identical obligations across circuits
/// are proved once (kernel/goal_cache.h).  Results come back in submit
/// order with per-job status and cache provenance; `stats()` aggregates
/// cache hit rates and wall/CPU time for the service lifetime.
///
/// Threading model: a job's obligations fan out over the same pool the
/// jobs run on, and its engine tail shares ONE BddManager (check_batch),
/// confined to the thread that runs it; retries run alone, each on its
/// thread's manager, reset.  Cross-job sharing happens in the kernel
/// (interner, memo tables) and in the service's goal caches, both
/// concurrency-safe.
class VerifyService {
 public:
  explicit VerifyService(ServiceOptions opts = {});
  ~VerifyService();

  VerifyService(const VerifyService&) = delete;
  VerifyService& operator=(const VerifyService&) = delete;

  /// Enqueue a job on the pool; returns its index in the next drain().
  std::size_t submit(JobSpec spec);

  /// Wait for every in-flight job and return their results in submit
  /// order.  The stream restarts empty afterwards (stats accumulate).
  std::vector<JobResult> drain();

  /// submit() everything, then drain() — the batch entry point.
  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs);

  /// Run one job inline on the calling thread against the same caches
  /// (the serial path; also what pool workers execute).
  JobResult run_one(const JobSpec& spec);

  /// The admission front's entry points (service/admission.h), splitting
  /// run_one's accounting: run_scheduled executes a job and counts it in
  /// the job/failure totals but NOT in the wall/CPU window (the front owns
  /// the batch window and reports it via record_window); record_skipped
  /// accounts a job the front never dispatched (deadline expiry).
  JobResult run_scheduled(const JobSpec& spec);
  void record_window(double wall_sec, double cpu_sec);
  void record_skipped(const JobResult& r);

  /// Warm start: merge a previously saved cache file into the shared
  /// caches (entries proved in this process win on conflict).  The proof
  /// obligations are pure goal terms, so a theorem proved by ANY earlier
  /// run is valid forever — this is what turns the single-run cache
  /// amortisation into a cross-restart one.  Missing, corrupt, truncated
  /// or version-skewed files are reported in the result's note and leave
  /// the caches untouched; they never throw (see service/cache_file.h).
  CacheLoadResult load_cache(const std::string& path);

  /// Snapshot the shared caches to `path` (atomic write-to-temp-then-
  /// rename; safe against concurrent jobs still publishing).  Throws
  /// CacheFileError on I/O failure.
  void save_cache(const std::string& path) const;

  ServiceStats stats() const;

  /// The cache seam the service is running against (in-process, file or
  /// remote — see CachePolicy).  Exposed for conformance tests and the
  /// service front's health diagnostics.
  CacheBackend& cache_backend();
  const CacheBackend& cache_backend() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eda::service
