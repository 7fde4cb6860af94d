#pragma once

#include "circuit/bitblast.h"
#include "verify/common.h"

namespace eda::verify {

/// SIS-style FSM comparison (the paper's "SIS" column): explicit
/// breadth-first traversal of the product state graph, enumerating every
/// input combination from every visited state and comparing the outputs.
/// Cost is O(|reachable states| * 2^inputs) — exponential in both the
/// flip-flop and input counts, which is why the column degrades first in
/// the tables.
///
/// Each dequeued state is evaluated on 64 consecutive input vectors per
/// sim::BitSimulator step, one vector per lane, and successors are
/// recorded in input-vector order, so verdicts, `iterations` and `peak`
/// are those of a one-vector-at-a-time search.  This is a constant factor
/// only: the search is still explicit, not symbolic.  `state_limit` is
/// tested once per dequeued state; the clock is read every fixed number of
/// 64-vector packets, inside a state as well as between states, and that
/// one reading decides the stop and fills `seconds`.
VerifyResult sis_fsm_check(const circuit::GateNetlist& a,
                           const circuit::GateNetlist& b,
                           const VerifyOptions& opts = {});

}  // namespace eda::verify
