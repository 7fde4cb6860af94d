#include "service/guard.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <thread>

#include "bdd/bdd.h"
#include "service/fault.h"

namespace eda::service {

const char* verdict_class_name(VerdictClass v) {
  switch (v) {
    case VerdictClass::Unknown:
      return "UNKNOWN";
    case VerdictClass::Equiv:
      return "EQUIV";
    case VerdictClass::Nonequiv:
      return "NONEQUIV";
    case VerdictClass::Timeout:
      return "TIMEOUT";
    case VerdictClass::ResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case VerdictClass::InternalError:
      return "INTERNAL_ERROR";
    case VerdictClass::DeadlineExpired:
      return "DEADLINE_EXPIRED";
    case VerdictClass::RetryLater:
      return "RETRY_LATER";
    case VerdictClass::InvalidRequest:
      return "INVALID_REQUEST";
  }
  return "?";  // unreachable
}

bool verdict_is_failure(VerdictClass v) {
  return v != VerdictClass::Equiv && v != VerdictClass::Nonequiv;
}

bool verdict_is_retryable(VerdictClass v) {
  switch (v) {
    case VerdictClass::Timeout:
    case VerdictClass::ResourceExhausted:
    case VerdictClass::InternalError:
    case VerdictClass::RetryLater:
      return true;
    case VerdictClass::Unknown:
    case VerdictClass::Equiv:
    case VerdictClass::Nonequiv:
    case VerdictClass::DeadlineExpired:
    case VerdictClass::InvalidRequest:
      return false;
  }
  return false;  // unreachable
}

VerdictClass classify_result(const verify::VerifyResult& r) {
  if (r.completed) {
    return r.equivalent ? VerdictClass::Equiv : VerdictClass::Nonequiv;
  }
  switch (r.failure) {
    case verify::FailureKind::Timeout:
      return VerdictClass::Timeout;
    case verify::FailureKind::ResourceExhausted:
      return VerdictClass::ResourceExhausted;
    case verify::FailureKind::InternalError:
      return VerdictClass::InternalError;
    case verify::FailureKind::None:
      break;
  }
  return VerdictClass::Unknown;
}

VerdictClass classify_exception(const std::exception& e) {
  if (dynamic_cast<const bdd::BddError*>(&e) != nullptr ||
      dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return VerdictClass::ResourceExhausted;
  }
  return VerdictClass::InternalError;
}

double retry_backoff_ms(const RetryPolicy& policy, int retry) {
  double b = policy.backoff_ms;
  for (int k = 1; k < retry; ++k) {
    b *= 2.0;
    if (b >= policy.backoff_cap_ms) break;  // saturated; stop doubling
  }
  return std::min(b, policy.backoff_cap_ms);
}

namespace {

using Clock = std::chrono::steady_clock;

verify::FailureKind failure_kind_of(VerdictClass v) {
  switch (v) {
    case VerdictClass::Timeout:
      return verify::FailureKind::Timeout;
    case VerdictClass::ResourceExhausted:
      return verify::FailureKind::ResourceExhausted;
    default:
      return verify::FailureKind::InternalError;
  }
}

}  // namespace

GuardedRun run_guarded(
    const RetryPolicy& policy, const verify::VerifyOptions& opts,
    const std::function<verify::VerifyResult(const verify::VerifyOptions&)>&
        attempt,
    const verify::VerifyResult* first) {
  GuardedRun g;
  verify::VerifyOptions cur = opts;
  Clock::time_point t0 = Clock::now();
  auto elapsed_sec = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (int retry = 0;; ++retry) {
    ++g.attempts;
    try {
      // Injection sites live INSIDE the guard: an injected fault takes the
      // same classify/retry/backoff path a real one would.
      FaultInjector& faults = FaultInjector::instance();
      if (faults.should_fail(kFaultWorker)) {
        throw std::runtime_error("injected worker-thread exception");
      }
      if (faults.should_fail(kFaultAlloc)) throw std::bad_alloc();
      if (faults.should_fail(kFaultEngineBdd)) {
        throw bdd::BddError("injected BDD pool failure");
      }
      g.result = retry == 0 && first != nullptr ? *first : attempt(cur);
      g.verdict = classify_result(g.result);
      g.error.clear();
    } catch (const std::exception& e) {
      g.verdict = classify_exception(e);
      g.result = verify::VerifyResult{};
      g.result.failure = failure_kind_of(g.verdict);
      g.error = e.what();
    }
    if (!verdict_is_retryable(g.verdict) || retry >= policy.max_retries) {
      return g;
    }
    double backoff = retry_backoff_ms(policy, retry + 1);
    if (policy.deadline_sec > 0.0 &&
        elapsed_sec() + backoff / 1000.0 >= policy.deadline_sec) {
      return g;  // no budget left for another attempt
    }
    g.backoff_ms += backoff;
    if (policy.really_sleep) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
    // Escalate the budget the failure actually exhausted.  An escalated
    // completion is still a pure statement about the circuits, so caching
    // it under the originally requested bounds stays sound.
    if (g.verdict == VerdictClass::Timeout) {
      cur.timeout_sec *= policy.escalation;
    } else if (g.verdict == VerdictClass::ResourceExhausted) {
      cur.node_limit = static_cast<std::size_t>(
          static_cast<double>(cur.node_limit) * policy.escalation);
      cur.state_limit = static_cast<std::size_t>(
          static_cast<double>(cur.state_limit) * policy.escalation);
      cur.timeout_sec *= policy.escalation;  // bigger pools fill slower
    }
    if (policy.deadline_sec > 0.0) {
      cur.timeout_sec =
          std::min(cur.timeout_sec, policy.deadline_sec - elapsed_sec());
    }
  }
}

}  // namespace eda::service
