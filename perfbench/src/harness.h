#pragma once

// What the closed-loop run and the traced replay share: the service
// configuration each workload runs under, the embedded cache daemon, and
// the verdict check against the generator's ground truth.

#include <cstdint>
#include <memory>
#include <string>

#include "circuit/rtl.h"
#include "hash/compile.h"
#include "service/cache_server.h"
#include "service/verify_service.h"
#include "workloads.h"

namespace perfbench {

double cpu_seconds();   ///< process CPU, all threads
double peak_rss_mb();   ///< peak resident set of this process

/// How a finished job compares with the generator's answer.
enum class Outcome {
  Correct,  ///< EQUIV/NONEQUIV as expected (and the right counterexample)
  Failed,   ///< no answer: an error or a failure-class verdict
  Wrong,    ///< an answer that contradicts the generator
};
Outcome judge(const JobInput& in, const eda::service::JobResult& r);

eda::service::JobSpec job_spec(const JobInput& in);

/// An RTL circuit spec (fig2:N, fig2deep:N:S, mult:N, ctrl:S:T, pipe:W:D,
/// iwls:NAME) resolved to its netlist and retiming cut, as the service
/// resolves it.  Throws std::invalid_argument on other specs.
struct RtlObligation {
  eda::circuit::Rtl rtl;
  eda::hash::Cut cut;
};
RtlObligation resolve_rtl(const std::string& spec);

/// True when the service's theorem cache holds the retiming theorem of
/// `spec`: no hypotheses, and its conclusion equates AUTOMATON h q with
/// the compiled original circuit's (h, q) on the left.  This is what a
/// `hash` job returns.
bool has_retiming_theorem(eda::service::VerifyService& svc,
                          const std::string& spec);

/// The service side of a workload, built by set-up and torn down at exit:
/// one shared in-process service (hash_retime, posthoc_check) or an
/// embedded cache daemon that fresh client services connect to
/// (cone_cold empty, edit_replay loaded from the warm store).
class Harness {
 public:
  /// `warm_file` is edit_replay's private copy of the warm store.
  Harness(Workload w, const std::string& dir, const std::string& warm_file,
          unsigned threads);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Run one job the way its client would: on the shared service, or on a
  /// fresh client service (construction included) for the daemon
  /// workloads.
  eda::service::JobResult run(const JobInput& in);
  eda::service::VerifyService* shared_service() { return service_.get(); }

 private:
  std::string server_;
  std::unique_ptr<eda::service::CacheServer> daemon_;
  std::unique_ptr<eda::service::VerifyService> service_;
};

/// Prove every base pair of edit_replay through the service against a
/// fresh daemon whose store is then saved to `warm_file`.  Returns false
/// (with a message on stderr) if any base verdict is not EQUIV.
bool build_warm_store(const std::string& dir, const std::string& warm_file);

}  // namespace perfbench
