#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/bitblast.h"

namespace eda::verify {
struct ConePair;  // verify/cone.h; full definition only needed in bitsim.cpp
}  // namespace eda::verify

namespace eda::sim {

class SimError : public kernel::KernelError {
 public:
  explicit SimError(const std::string& what) : kernel::KernelError(what) {}
};

/// One 64-lane dual-rail signal word: lane i of `val` is the signal's value
/// in simulation vector i, valid only where the matching bit of `known` is
/// set.  Unknown (X) lanes arise from the pessimistic flop initialisation
/// below and propagate through gates conservatively: an AND with a
/// controlling 0 is known-0 even if the other side is X, an XOR of an X is
/// X.
struct Packet {
  std::uint64_t val = 0;
  std::uint64_t known = 0;
};

/// Stimulus budget for a refutation attempt.  `vectors` counts input
/// vectors (rounded up to whole 64-lane words); sequential designs are
/// unrolled `frames` clock cycles per vector, with every flip-flop starting
/// at X.  The X-pessimistic init is what makes refutation SOUND against
/// every engine's init semantics: a mismatch is only reported where both
/// sides' outputs are *known*, i.e. differ for this input sequence
/// regardless of any initial register values — in particular from the
/// concrete initial states the BDD engines start from.
struct SimOptions {
  int vectors = 256;
  int frames = 4;
  std::uint64_t seed = 0x5eedf17e;
};

/// The gate-level netlist compiled for repeated bit-parallel evaluation:
/// a flat structure-of-arrays op list (opcode and fan-in indices in
/// separate contiguous arrays, one slot per node) evaluated in one branch-
/// light loop per frame — the idock pattern of batching many independent
/// evaluations against precomputed data, with the 64 lanes of a word as
/// the batch.  Construction validates and flattens once; step() is then
/// pure array traffic.
class BitSimulator {
 public:
  explicit BitSimulator(const circuit::GateNetlist& net);

  int num_inputs() const { return static_cast<int>(input_slots_.size()); }
  int num_outputs() const { return static_cast<int>(output_slots_.size()); }

  /// Forget all sequential state: every flip-flop returns to X on all
  /// lanes (the pessimistic init).
  void reset();

  /// Latch one concrete state on every lane, all lanes known: flip-flop k
  /// (GateNetlist::dffs() order) takes bit k % 64 of `bits[k / 64]`.  The
  /// explicit-state checker (verify/sis_fsm.h) uses this to run one state
  /// against 64 input vectors per step().
  void latch(const std::uint64_t* bits);

  /// Advance one clock cycle on all 64 lanes: `stimulus[k]` packs input
  /// k's value across the lanes (all lanes known).  Outputs are valid
  /// until the next step()/reset().
  void step(const std::vector<std::uint64_t>& stimulus);

  /// Output k after the latest step().
  Packet output(int k) const { return out_[static_cast<std::size_t>(k)]; }

  /// Flip-flop k's latched packet: after step(), its next state per lane.
  Packet state(int k) const { return state_[static_cast<std::size_t>(k)]; }

 private:
  struct Op {
    std::uint8_t code;  // GateOp
    std::int32_t a = -1, b = -1;
  };
  std::vector<Op> ops_;                  // one per node, index order
  std::vector<std::uint64_t> val_;       // SoA lane values, one per node
  std::vector<std::uint64_t> known_;     // SoA known masks, one per node
  std::vector<std::int32_t> input_slots_;
  std::vector<std::int32_t> dff_slots_;
  std::vector<std::int32_t> dff_next_;
  std::vector<Packet> state_;            // latched flop packets
  std::vector<Packet> out_;
  std::vector<std::int32_t> output_slots_;
};

/// A concrete refuting stimulus, replayable on circuit::GateSimulator:
/// per-frame input vectors (positional, like GateSimulator::step) that
/// drive the two sides to different values at output `output_index` in
/// frame `frame`, from ANY initial register values.
struct Counterexample {
  std::vector<std::vector<bool>> frames;  ///< [frame][input] concrete bits
  std::size_t output_index = 0;
  std::string output;  ///< differing output's name (A-side spelling)
  int frame = 0;       ///< frame (clock cycle) of the mismatch
};

struct RefuteResult {
  bool refuted = false;
  std::uint64_t vectors = 0;  ///< input vectors actually simulated
  Counterexample cex;         ///< valid only when refuted
};

/// Drive both netlists with identical seeded random stimulus, 64 vectors
/// per word, and report the first lane where some output pair differs with
/// both sides known.  Microseconds per pair; NEVER claims equivalence —
/// `refuted == false` just means this budget found no witness and the pair
/// must go on to an engine.  Sides whose input or output counts differ are
/// not comparable positionally and return un-refuted (the engine layer
/// owns that diagnostic).
RefuteResult refute(const circuit::GateNetlist& a,
                    const circuit::GateNetlist& b,
                    const SimOptions& opts = {});

/// The cone-pair entry point (verify/cone.h): both sides share the parent
/// PI interface by construction, and the counterexample is labelled with
/// the pair's parent output name when it has one — the spelling
/// stitch_verdicts surfaces.
RefuteResult refute(const verify::ConePair& pair,
                    const SimOptions& opts = {});

}  // namespace eda::sim
