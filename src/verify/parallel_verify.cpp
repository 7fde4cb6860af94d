#include "verify/parallel_verify.h"

#include "kernel/parallel.h"
#include "verify/batch_bdd.h"

namespace eda::verify {

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::Eijk:
      return "eijk";
    case Engine::EijkPlus:
      return "eijk+";
    case Engine::Smv:
      return "smv";
    case Engine::SisFsm:
      return "sis";
  }
  return "?";  // unreachable
}

std::optional<Engine> parse_engine(const std::string& name) {
  if (name == "eijk") return Engine::Eijk;
  if (name == "eijk+" || name == "eijkplus") return Engine::EijkPlus;
  if (name == "smv") return Engine::Smv;
  if (name == "sis") return Engine::SisFsm;
  return std::nullopt;
}

VerifyResult run_check(const CheckJob& job) {
  return check_batch({job}).front();
}

std::vector<VerifyResult> check_parallel(const std::vector<CheckJob>& jobs) {
  return kernel::parallel_map(
      jobs, [](const CheckJob& job) { return run_check(job); });
}

}  // namespace eda::verify
