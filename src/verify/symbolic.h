#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "circuit/bitblast.h"
#include "verify/common.h"

namespace eda::verify {

/// The two machines of a product: A is the original, B the retimed one.
enum class Side : std::uint8_t { A = 0, B = 1 };

/// What a product-machine variable stands for.
enum class VarRole : std::uint8_t { Input, AState, ANext, BState, BNext };

/// The variable order of the product machine of two gate netlists sharing
/// their primary inputs: a position for each input and for each of A's
/// and B's registers.  A register's next-state variable sits right after
/// its present-state one, so the next -> present rename after each image
/// step is order-preserving and takes the BDD package's cheap `mk` path.
///
/// The order is structural (Malik et al., ICCAD '88; Fujita, Fujisawa &
/// Kawato, ICCAD '88): product_layout walks the miter depth-first from the
/// outputs through the fan-ins, so variables that feed the same logic sit
/// together, and B's registers land next to the A registers that feed the
/// same output.  An index order (inputs, then all of A's registers, then
/// all of B's) keeps every register as far as it can be from its
/// counterpart on the other side.
///
/// Variables are named by (role, index), never by netlist, so every pair a
/// layout was computed for uses the same variable for input j or A's k-th
/// register: a batch's identical cones build identical BDDs in one
/// manager.
struct ProductLayout {
  std::vector<int> input;     ///< input j -> its variable
  std::vector<int> state[2];  ///< [side][register k] -> present variable
  std::vector<VarRole> role;  ///< variable -> what it stands for
  /// variable -> its present-state variable for a next-state variable,
  /// itself otherwise: the rename after each image step.
  std::vector<int> next_to_present;

  int input_var(int j) const { return input[static_cast<std::size_t>(j)]; }
  int state_var(Side s, int k) const {
    return state[static_cast<int>(s)][static_cast<std::size_t>(k)];
  }
  int next_var(Side s, int k) const { return state_var(s, k) + 1; }
  int total() const { return static_cast<int>(role.size()); }
};

using NetlistPair =
    std::pair<const circuit::GateNetlist*, const circuit::GateNetlist*>;

/// The one structural order for a batch of (A, B) pairs, by an iterative
/// depth-first walk (no recursion, whatever the logic depth):
///   1. each pair's miter, in batch order: A's output o, then B's output
///      o, for o = 0, 1, ..., through the fan-ins (operand a before b),
///      placing each input and register at its first visit;
///   2. each pair's found registers' next-state functions, A's and B's in
///      turn, in the order the registers were found (a register first
///      reached here joins the end of its side's list);
///   3. every variable neither walk reached: inputs, then A's registers,
///      then B's.
/// It covers the largest input and register counts in the batch.
ProductLayout product_layout(const std::vector<NetlistPair>& pairs);

/// One machine's symbolic functions under a variable assignment.
struct SymbolicMachine {
  std::vector<bdd::BddId> outputs;     // over inputs + present-state vars
  std::vector<bdd::BddId> next_fn;     // next-state functions
  std::vector<int> state_vars;         // present-state variable indices
  std::vector<int> next_vars;          // next-state variable indices
  bdd::BddId init;                     // initial-state predicate
};

/// Build the BDDs of a gate netlist's outputs and next-state functions,
/// as side `side` of `layout`.
SymbolicMachine build_machine(bdd::BddManager& mgr,
                              const circuit::GateNetlist& net,
                              const ProductLayout& layout, Side side);

/// Product-machine context shared by the symbolic verifiers.
struct Product {
  SymbolicMachine a, b;
  bdd::BddId miscompare;        // exists an input making outputs differ
  std::vector<int> quantify;    // inputs + both present-state vars
};

/// Throws BddError via the manager on node-limit blowup; the callers
/// convert that into `completed = false`.
Product build_product(bdd::BddManager& mgr, const ProductLayout& layout,
                      const circuit::GateNetlist& a,
                      const circuit::GateNetlist& b);
/// The same under the pair's own order, product_layout({{&a, &b}}).
Product build_product(bdd::BddManager& mgr, const circuit::GateNetlist& a,
                      const circuit::GateNetlist& b);

/// Combinational tautology / equivalence checking (the paper's section II
/// baseline for pure combinational circuits): two netlists with identical
/// input counts; compares each output BDD.
bool combinational_equivalent(const circuit::GateNetlist& a,
                              const circuit::GateNetlist& b);

/// Number of BDD variables needed for the product of a and b.
int product_var_count(const circuit::GateNetlist& a,
                      const circuit::GateNetlist& b);

}  // namespace eda::verify
