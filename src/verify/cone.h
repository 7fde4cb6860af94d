#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <optional>

#include "io/blif.h"
#include "sim/bitsim.h"
#include "verify/parallel_verify.h"

namespace eda::verify {

class ConeError : public kernel::KernelError {
 public:
  explicit ConeError(const std::string& what) : kernel::KernelError(what) {}
};

/// One positionally paired output cone from two netlists under comparison:
/// the unit of incremental re-verification.  The whole-design equivalence
/// question "do A and B agree on every output?" decomposes exactly into
/// one such pair per output — each output's behaviour is a function of its
/// cone alone — so per-pair verdicts stitch back losslessly
/// (stitch_verdicts below).  A whole-netlist obligation is the same
/// record with an empty label.
struct ConePair {
  std::string output;  ///< A-side output name (labels counterexamples)
  std::uint64_t hash_a = 0, hash_b = 0;  ///< canonical cone digests
  circuit::GateNetlist a, b;             ///< io::extract_cones netlists
};

/// Decompose both netlists (io::extract_cones) and pair the cones by
/// output position — the same matching the engines apply to whole
/// netlists.  Throws ConeError when the output counts differ (no
/// positional pairing exists).
std::vector<ConePair> pair_cones(const circuit::GateNetlist& a,
                                 const circuit::GateNetlist& b);

/// The engine-free tiers' view of one obligation: the pair, plus whether
/// and how to run the bit-parallel simulation pre-filter (sim/bitsim.h).
struct ConeJob {
  const ConePair* pair = nullptr;
  bool use_sim = true;
  sim::SimOptions sim;
};

/// Try to settle one pair without an engine, cheapest evidence first:
///   tier 1  structurally identical sides — free EQUIV;
///   tier 2  the hash-consed miter folds to a constant — free verdict;
///   tier 3  bit-parallel random simulation refutes the pair (use_sim) —
///           microsecond NONEQUIV with a concrete counterexample.
/// nullopt means an engine must run (tier 4, check_batch); `sim_spent`,
/// when given, receives the stimulus the pre-filter burned on the
/// pass-through so the engine verdict can still account for it.  Throws
/// ConeError when the sides' interfaces differ.
std::optional<VerifyResult> check_cone_fast(
    const ConeJob& job, std::uint64_t* sim_spent = nullptr);

/// Build the miter of two netlists sharing their primary inputs: a
/// single-output netlist whose output is OR over outputs of
/// (a_i XOR b_i) — 0 exactly when the sides agree.  Construction
/// hash-conses every combinational gate (with constant folding and
/// double-negation/absorption rules), so logic the two sides share — the
/// common case when B is a small edit of A — is built ONCE and feeds both
/// sides' outputs; combinationally equal sides fold the miter output all
/// the way to a constant 0, which check_cone_fast turns into an engine-free
/// verdict.  Flip-flops are per-side (register correspondence across
/// sides is the engines' job, not the builder's).  Throws ConeError on an
/// interface mismatch.
circuit::GateNetlist build_miter(const circuit::GateNetlist& a,
                                 const circuit::GateNetlist& b);

/// True when the miter's output literal folded to the given constant.
bool miter_output_is_const(const circuit::GateNetlist& miter, bool value);

/// Per-obligation verdict plus its cache provenance, ready for stitching.
/// `output` labels the obligation (a cone's parent output name; empty for
/// a whole-netlist obligation).
struct ConeVerdict {
  std::string output;
  VerifyResult result;
  bool cache_hit = false;
};

/// The whole-design verdict reassembled from per-obligation verdicts, with
/// honest accounting: a design is EQUIV iff every obligation completed
/// EQUIV; any completed NONEQUIV obligation short-circuits the whole
/// design to a completed NONEQUIV verdict (one differing output disproves
/// equivalence regardless of obligations still unresolved); otherwise an
/// incomplete obligation leaves the design incomplete.  The
/// counterexample comes from the first NONEQUIV obligation: its label when
/// it has one (a cached cone verdict may carry another design's output
/// name), else its result's own counterexample.
struct StitchedVerdict {
  bool completed = false;
  bool equivalent = false;
  std::string counterexample;  ///< first NONEQUIV obligation's output
  std::size_t cones = 0;
  std::size_t hits = 0;      ///< obligations served from a verdict cache
  std::size_t reproved = 0;  ///< obligations that had to be re-proved
  std::size_t sim_refuted = 0;       ///< settled by the sim tier
  std::uint64_t sim_vectors = 0;     ///< total pre-filter stimulus spent
};

StitchedVerdict stitch_verdicts(const std::vector<ConeVerdict>& cones);

}  // namespace eda::verify
