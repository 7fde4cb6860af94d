#pragma once

#include <optional>
#include <string>
#include <vector>

#include "circuit/bitblast.h"
#include "verify/common.h"

namespace eda::verify {

/// Which engine a CheckJob runs (the columns of the paper's tables).
enum class Engine { Eijk, EijkPlus, Smv, SisFsm };

/// Table-column spelling of an engine: "eijk", "eijk+", "smv", "sis".
const char* engine_name(Engine engine);

/// Inverse of engine_name (nullopt on unknown spellings).  Used by the
/// verification service's manifest/CLI front ends.
std::optional<Engine> parse_engine(const std::string& name);

/// One sequential-equivalence obligation: a pair of gate-level netlists
/// plus the engine and resource bounds to check them with.
struct CheckJob {
  const circuit::GateNetlist* a = nullptr;
  const circuit::GateNetlist* b = nullptr;
  Engine engine = Engine::Eijk;
  VerifyOptions opts;
};

/// Run one job: the symbolic engines as a batch of one through
/// check_batch (verify/batch_bdd.h), SisFsm through sis_fsm_check.
VerifyResult run_check(const CheckJob& job);

/// Run independent obligations concurrently on the global thread pool,
/// results in input order.
///
/// Threading model: a BddManager is confined to the thread that runs its
/// check_batch call — each thread keeps one and resets it for every call:
/// here one call per job, on the service's engine tail one per job's batch
/// of obligations.  Managers are never shared across threads; cross-job
/// sharing happens in the kernel's concurrent interner and the hash
/// layer's memo tables.
std::vector<VerifyResult> check_parallel(const std::vector<CheckJob>& jobs);

}  // namespace eda::verify
