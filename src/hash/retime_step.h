#pragma once

#include "hash/compile.h"
#include "kernel/thm.h"

namespace eda::hash {

/// Result of one formal forward-retiming step.
struct FormalRetimeResult {
  /// The correctness theorem, derived inside the kernel:
  ///   |- !i t. AUTOMATON h q i t = AUTOMATON h' q' i t
  /// where (h, q) is the compiled original circuit and (h', q') the
  /// compiled retimed circuit (h' is the joined g-then-f combinational
  /// part, q' the evaluated new initial values f(q)).
  kernel::Thm theorem;
  /// The retimed netlist; `compile(retimed)` yields exactly (h', q') of the
  /// theorem — checked before returning.
  circuit::Rtl retimed;
  /// The split used (step 1 of the procedure).
  kernel::Term f_term;
  kernel::Term g_term;
  /// Which original signal each new register carries.
  std::vector<circuit::SignalId> chi;
};

/// Perform one formal forward-retiming step (paper, section IV.A):
///   1. split the combinational part into f and g according to `cut`
///      (throws CutError if the cut does not match the pattern — fig. 4);
///   2. instantiate the universal RETIMING_THM with f, g and the initial
///      state q;
///   3. join f and g into a single combinational part (beta/projection
///      normalisation of h2 = \p. (FST (g p), f (SND (g p))));
///   4. evaluate the new initial values f(q) (ground evaluation).
///
/// The returned theorem relates the *original* compiled description to the
/// *retimed* compiled description; by the LCF discipline it cannot be wrong
/// no matter what cut the heuristic supplied.
FormalRetimeResult formal_retime(const circuit::Rtl& rtl, const Cut& cut);

/// The same step for a caller that already holds `compile(rtl)` and
/// `compile_split(rtl, cut)` (the service builds its theorem-cache goal
/// from them), so neither is computed twice.
FormalRetimeResult formal_retime(const circuit::Rtl& rtl, const Cut& cut,
                                 const CompiledCircuit& orig,
                                 const SplitCircuit& split);

/// The conventional (unverified) counterpart: the same netlist transform
/// without entering the logic.  Used as the plain-synthesis baseline and to
/// cross-check structural agreement in tests.
circuit::Rtl conventional_retime(const circuit::Rtl& rtl, const Cut& cut);

/// Same, but also returns where each original combinational node went
/// (g-nodes keep their role; f-nodes map to their re-computed copy behind
/// the moved registers).  Multi-step retiming chains use this to track cut
/// sets across steps.
struct RetimeMapping {
  circuit::Rtl rtl;
  std::map<circuit::SignalId, circuit::SignalId> comb_map;
};
RetimeMapping conventional_retime_mapped(const circuit::Rtl& rtl,
                                         const Cut& cut);

}  // namespace eda::hash
