#pragma once

// Shared seeded generators for the test suites.  Every suite that needs
// random terms, the overlapping concurrency term family, equality towers
// or random gate netlists draws them from here, so "the same seed" means
// the same objects across test_kernel, test_parallel, test_serialize and
// friends — and a distribution fix lands everywhere at once.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "circuit/bitblast.h"
#include "kernel/terms.h"
#include "kernel/types.h"

namespace eda::testlib {

/// The suite-wide base seed for every randomized test and bench stimulus:
/// the EDA_SEED environment variable when set (decimal or 0x-hex, full
/// token), else a fixed default.  Resolved once per process and logged to
/// stdout on first use, so every ctest log and bench JSON records the seed
/// it actually ran under — a failing randomized case replays exactly with
/// `EDA_SEED=<logged value>`.  Suites deriving many seeds should offset
/// from this base (seed + case index), keeping cases distinct but all
/// anchored to the one logged value.
std::uint64_t stimulus_seed();

/// Deterministic generator of random *well-typed* kernel terms.
///
/// All structural decisions (shapes, types, which variable a leaf picks)
/// are driven by `seed` alone; `binder_salt` only affects the SPELLING of
/// bound-variable names.  Two generators with equal seeds and different
/// salts therefore produce pairwise alpha-equivalent terms that intern to
/// distinct nodes whenever an abstraction occurs — exactly the pairs the
/// goal-cache and serializer property tests need.
class TermGen {
 public:
  explicit TermGen(std::uint64_t seed, std::string binder_salt = "b");

  /// Random type of bounded depth: bool / num leaves, fun/prod interior.
  kernel::Type random_type(int depth);
  /// Random well-typed term of exactly type `ty`, at most `depth` deep.
  kernel::Term random_term(const kernel::Type& ty, int depth);
  /// Random boolean term — the shape goal caches key on.
  kernel::Term random_goal(int depth);

  std::uint64_t u64();
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi);

 private:
  std::mt19937_64 rng_;
  std::string binder_salt_;
  int binder_count_ = 0;
  std::vector<kernel::Term> scope_;  ///< bound variables, innermost last
};

/// The overlapping term family the concurrency tests build from every
/// thread: equality towers over a shared leaf pool plus numerals.  Returns
/// the node ids in build order so cross-thread runs can be compared for
/// pointer identity.
std::vector<const void*> build_family(int rounds);

/// `depth`-high doubling equality tower over one boolean leaf — the 2^depth
/// tree-size / O(depth) DAG-size shape the interning tests lean on.
kernel::Term eq_tower(int depth, const std::string& leaf = "x");

/// Random (valid, cycle-free) gate netlist: `inputs` primary inputs,
/// `ffs` flip-flops, `gates` random gates over earlier literals, plus one
/// output per flip-flop chain tail.  Deterministic in `seed`.
circuit::GateNetlist random_netlist(std::uint64_t seed, int inputs,
                                    int gates, int ffs);

/// Multi-output variant: the same random machine (identical rng stream, so
/// equal seeds share all internal logic with random_netlist) but with
/// `outputs` primary outputs tapping distinct literals from the tail of
/// the construction — the N-cone designs the incremental-verification
/// tests and the bench edit-replay leg mutate one cone of.  Requires
/// outputs <= inputs + ffs + gates.
circuit::GateNetlist random_netlist_multi(std::uint64_t seed, int inputs,
                                          int gates, int ffs, int outputs);

/// The two single-cone edits with KNOWN semantics, applied at one primary
/// output's tap (so every other output's cone — including cones sharing
/// logic with the edited one — is structurally untouched):
///
///   Equivalent — insert a double inverter before the output.  The cone's
///     structure (and hence its canonical hash) changes, its function does
///     not: the mutated design must still verify EQUIV.
///   EquivalentOpaque — insert the absorption redundancy
///     Or(x, And(x, in0)) before the output.  Also function-preserving,
///     but unlike the double inverter it is NOT removed by syntactic
///     simplification (no local rewrite rule fires), so proving the
///     mutated cone equivalent costs a real engine run — the edit the
///     bench uses to measure incremental re-verification honestly.
///     Requires the netlist to have at least one primary input.
///   Different  — insert a single inverter.  The output is complemented on
///     EVERY input and state, so the design is NONEQUIV with this output
///     as the counterexample.
enum class ConeEdit { Equivalent, EquivalentOpaque, Different };

/// Rebuild `net` with `edit` applied to outputs()[output_idx].  Node ids
/// of the original netlist are preserved (new inverters append at the
/// end); throws std::out_of_range on a bad index.
circuit::GateNetlist mutate_cone(const circuit::GateNetlist& net,
                                 std::size_t output_idx, ConeEdit edit);

/// `depth` inverters in a chain from input "x" to output "y": the
/// deepest netlist per node, for tests that logic depth never reaches
/// the call stack.
circuit::GateNetlist inverter_chain(int depth);

}  // namespace eda::testlib
