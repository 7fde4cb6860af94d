#pragma once

// The four workloads: what each generates from its seed, and the expected
// verdict of every job, known from the generator alone.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { HashRetime, PosthocCheck, ConeCold, EditReplay };

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);

/// One job as the program receives it: a service circuit spec and method,
/// plus what the generator knows about it.
struct JobInput {
  std::string circuit;      ///< JobSpec::circuit (RTL spec or blif:A,B)
  std::string method;       ///< JobSpec::method spelling
  double timeout_sec = 10.0;
  bool expect_equiv = true;
  std::string expect_cex;   ///< NONEQUIV only: the first differing output
  std::string family;       ///< traffic label (circuit family, edit kind)
};

/// How much input to generate.  A closed-loop run consumes jobs in order
/// until its time is up, so the pools are sized from the run length; the
/// traced replay takes a small fixed sample.
struct InputSize {
  double seconds = 10.0;
  bool replay_sample = false;
};

/// Generate the workload's inputs under `dir` (BLIF files and the job
/// list `jobs.tsv`; for edit_replay also `base.tsv`, the base pairs whose
/// verdicts form the warm store).  Deterministic in `seed`.
void prepare_inputs(Workload w, std::uint64_t seed, const std::string& dir,
                    const InputSize& size);

std::vector<JobInput> load_jobs(const std::string& path);

}  // namespace perfbench
