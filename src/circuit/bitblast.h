#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/rtl.h"

namespace eda::circuit {

/// Gate-level netlist: 2-input AND/OR/XOR, NOT, constants, primary inputs
/// and D flip-flops.  This is the "flat bit-level description at the gate
/// level" the model-checking baselines operate on (paper, section V).
using LitId = int;

enum class GateOp { Const0, Const1, Input, Dff, And, Or, Xor, Not };

struct GateNode {
  GateOp op = GateOp::Const0;
  LitId a = -1, b = -1;   // fan-in
  LitId next = -1;        // Dff: next-value literal
  bool init = false;      // Dff: initial value
  std::string name;
};

class GateNetlist {
 public:
  LitId add_const(bool v);
  LitId add_input(std::string name);
  LitId add_dff(std::string name, bool init);
  LitId add_gate(GateOp op, LitId a, LitId b = -1);
  void set_dff_next(LitId dff, LitId next);
  void add_output(std::string name, LitId lit);

  const std::vector<GateNode>& nodes() const { return nodes_; }
  const GateNode& node(LitId l) const {
    return nodes_.at(static_cast<std::size_t>(l));
  }
  const std::vector<LitId>& inputs() const { return inputs_; }
  const std::vector<LitId>& dffs() const { return dffs_; }
  const std::vector<std::pair<std::string, LitId>>& outputs() const {
    return outputs_;
  }

  /// Counts for the benchmark tables.
  int gate_count() const;  // AND/OR/XOR/NOT
  int ff_count() const { return static_cast<int>(dffs_.size()); }

  void validate() const;

  /// Capacity for `nodes` nodes, for builders that know the final size.
  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

 private:
  std::vector<GateNode> nodes_;
  std::vector<LitId> inputs_;
  std::vector<LitId> dffs_;
  std::vector<std::pair<std::string, LitId>> outputs_;
};

/// Expand a word-level circuit into gates: ripple-carry adders/subtractors,
/// shift-add multipliers, comparator trees, per-bit muxes; one DFF per
/// register bit.
GateNetlist bit_blast(const Rtl& rtl);

/// Cycle-accurate gate-level simulator (used to cross-check bit_blast
/// against the word-level simulator, and as the scalar reference the
/// explicit-state baseline is tested against).
class GateSimulator {
 public:
  explicit GateSimulator(const GateNetlist& net);
  void reset();
  /// One cycle; inputs by position (bit values).
  std::vector<bool> step(const std::vector<bool>& inputs);
  const std::vector<bool>& dff_state() const { return state_; }
  void set_dff_state(const std::vector<bool>& s) { state_ = s; }
  /// Combinational evaluation without latching (for state-space search).
  /// Returns (outputs, next-state).
  std::pair<std::vector<bool>, std::vector<bool>> eval(
      const std::vector<bool>& inputs, const std::vector<bool>& state) const;

 private:
  const GateNetlist& net_;
  std::vector<bool> state_;
};

/// Word inputs expanded to bits (LSB first) — helper shared by tests and
/// the verification baselines.
std::vector<bool> to_bits(std::uint64_t v, int width);
std::uint64_t from_bits(const std::vector<bool>& bits);

}  // namespace eda::circuit
