#pragma once

#include <functional>
#include <string>

#include "verify/common.h"

namespace eda::service {

/// The service's classified verdict taxonomy: what a client is told about
/// its job, honest about WHY when the answer is not EQUIV/NONEQUIV.  The
/// split drives retry policy (a blown budget is worth retrying bigger; a
/// malformed spec never is) and the service front's exit status.
///
///   EQUIV / NONEQUIV      completed answers (NONEQUIV is an answer, not a
///                         failure — it carries a counterexample)
///   TIMEOUT               wall-clock budget exhausted        (retryable)
///   RESOURCE_EXHAUSTED    BDD pool / state table / memory    (retryable)
///   INTERNAL_ERROR        unexpected exception mid-proof     (retryable)
///   DEADLINE_EXPIRED      admission deadline passed before the job ran
///   RETRY_LATER           rejected at admission (backpressure); resubmit
///   INVALID_REQUEST       malformed spec/files; retrying cannot help
///   UNKNOWN               no classified evidence either way
enum class VerdictClass {
  Unknown = 0,
  Equiv,
  Nonequiv,
  Timeout,
  ResourceExhausted,
  InternalError,
  DeadlineExpired,
  RetryLater,
  InvalidRequest,
};

/// Wire/JSON spelling: "EQUIV", "TIMEOUT", "RETRY_LATER", ...
const char* verdict_class_name(VerdictClass v);

/// Everything that is not a completed EQUIV/NONEQUIV answer.
bool verdict_is_failure(VerdictClass v);

/// Failures a retry (possibly with a bigger budget) could fix: TIMEOUT,
/// RESOURCE_EXHAUSTED, INTERNAL_ERROR, RETRY_LATER.
bool verdict_is_retryable(VerdictClass v);

/// Classify a finished engine run: completed results map to
/// EQUIV/NONEQUIV, incomplete ones follow the engine's recorded
/// FailureKind (UNKNOWN when the engine predates the taxonomy and
/// recorded nothing).
VerdictClass classify_result(const verify::VerifyResult& r);

/// Classify an exception that escaped an engine run: BddError and
/// bad_alloc are resource exhaustion, anything else is an internal error.
VerdictClass classify_exception(const std::exception& e);

/// Retry-with-escalating-budget policy for guarded engine runs.
struct RetryPolicy {
  /// Extra attempts after the first (so max_retries+1 runs total).
  int max_retries = 2;
  /// Capped exponential backoff between attempts: the k-th retry waits
  /// min(backoff_ms * 2^(k-1), backoff_cap_ms).
  double backoff_ms = 25.0;
  double backoff_cap_ms = 1000.0;
  /// Budget multiplier per retry: TIMEOUT escalates the wall clock,
  /// RESOURCE_EXHAUSTED escalates node/state limits (and the wall clock —
  /// a bigger pool needs longer to fill).
  double escalation = 2.0;
  /// Wall-clock budget for the WHOLE guarded run, retries and backoff
  /// included (0 = none).  Escalated per-attempt timeouts are capped to
  /// what remains, and no retry starts past the deadline.
  double deadline_sec = 0.0;
  /// Tests disable the real sleep and assert on the accounted backoff.
  bool really_sleep = true;
};

/// The k-th retry's backoff in milliseconds (k >= 1): monotone
/// non-decreasing, capped at backoff_cap_ms.
double retry_backoff_ms(const RetryPolicy& policy, int retry);

/// Outcome of a guarded run: the last attempt's result plus the retry
/// accounting the service reports per job.
struct GuardedRun {
  verify::VerifyResult result;
  VerdictClass verdict = VerdictClass::Unknown;
  int attempts = 0;        ///< attempts actually made (1 on first success)
  double backoff_ms = 0.0; ///< total backoff accounted between attempts
  std::string error;       ///< last failure diagnostic (empty on success)
};

/// Run `attempt(opts)` under the service's resource guard: exceptions are
/// caught and classified (never propagate — one pathological obligation
/// must not poison its batch), retryable failures re-run with escalated
/// budgets and capped exponential backoff, and the fault-injection sites
/// `worker`, `alloc` and `engine_bdd` fire here so the chaos schedule
/// exercises the exact recovery ladder production would run.  `first`,
/// when given, is the first attempt's result, already computed elsewhere
/// (the service's shared-pool batch): the sites still fire for it, and
/// only retries call `attempt`.
GuardedRun run_guarded(
    const RetryPolicy& policy, const verify::VerifyOptions& opts,
    const std::function<verify::VerifyResult(const verify::VerifyOptions&)>&
        attempt,
    const verify::VerifyResult* first = nullptr);

}  // namespace eda::service
