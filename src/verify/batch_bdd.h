#pragma once

#include <vector>

#include "verify/parallel_verify.h"

namespace eda::verify {

/// The symbolic traversal: advance many independent equivalence
/// obligations together through ONE shared BddManager.  run_check sends a
/// single job here as a batch of one, so this is the only image loop the
/// Eijk, Eijk+ and SMV columns run.
///
/// Per engine, breadth-first reachability over the product machine from
/// the initial state pair, then a check that no reached state can make
/// the outputs differ:
///   smv    one monolithic transition relation (SMV's formulation);
///   eijk   one conjunct per next-state bit with early quantification —
///          each variable is quantified right after the last conjunct
///          that mentions it (van Eijk's partitioned traversal);
///   eijk+  eijk plus functional-dependency reduction (van Eijk & Jess,
///          ED&TC'97): a B-side state variable whose two cofactors are
///          disjoint on the frontier is a function of the others — the
///          situation after retiming — so it is quantified away and its
///          dependency conjoined last.  Dependencies are detected afresh
///          on each frontier.
/// Each task computes its quantification schedule once, when its
/// partitions are built.
///
/// Variable order: one structural order per call, product_layout
/// (verify/symbolic.h) over every BDD job's pair in input order — a
/// depth-first walk of the miters, so each register sits near the
/// logic, and the registers on the other side, it shares fan-in with.
/// Every task uses that one order: the shared unique/ite tables are the
/// point of batching, since cones split off the same design build largely
/// identical BDDs, which collapse to the same nodes only under the same
/// order, and the apply cache warms across jobs.  A lock-step loop gives
/// every live task one image step per round, so no single blow-up-prone
/// job starves the rest.  Per-task timeouts are measured on time spent
/// inside that task's own build and steps, and hold inside a step: the
/// manager's deadline (BddManager::set_deadline) stops a build or an image
/// step that runs past what is left of the task's budget.  The pool's node
/// budget is the batch's aggregate per-job budget (capped at 8x the
/// largest single job — nodes are freed only between calls, so the pool
/// must hold every task's nodes at once); tasks the shared pool starves
/// are re-run as batches of one under their own limits once the batch is
/// done, so batching can cost time but never changes a verdict.  SisFsm
/// jobs are explicit-state, have nothing to share, and run sis_fsm_check
/// directly.
///
/// The manager: each thread keeps one BddManager and every call on that
/// thread leases it, reset to the call's variable count and node budget
/// (BddManager::reset), so a call pays for what its problems create, not
/// for growing fresh tables.  A manager that grew past a fixed cap is
/// freed when its lease ends.  Budgets, `peak` and every verdict read as
/// they would on a fresh manager: a reset one creates the same nodes.
std::vector<VerifyResult> check_batch(const std::vector<CheckJob>& jobs);

}  // namespace eda::verify
