#pragma once

#include <functional>

#include "bdd/bdd.h"
#include "circuit/bitblast.h"
#include "verify/common.h"

namespace eda::verify {

/// Variable layout for the product machine of two gate netlists sharing
/// their primary inputs: inputs first, then (present, next) pairs for A's
/// flip-flops followed by B's — the interleaving keeps renaming
/// order-preserving.
struct ProductLayout {
  int ni = 0, na = 0, nb = 0;
  int input_var(int j) const { return j; }
  int a_state(int k) const { return ni + 2 * k; }
  int a_next(int k) const { return ni + 2 * k + 1; }
  int b_state(int k) const { return ni + 2 * (na + k); }
  int b_next(int k) const { return ni + 2 * (na + k) + 1; }
  int total() const { return ni + 2 * (na + nb); }
};

/// One machine's symbolic functions under a variable assignment.
struct SymbolicMachine {
  std::vector<bdd::BddId> outputs;     // over inputs + present-state vars
  std::vector<bdd::BddId> next_fn;     // next-state functions
  std::vector<int> state_vars;         // present-state variable indices
  std::vector<int> next_vars;          // next-state variable indices
  bdd::BddId init;                     // initial-state predicate
};

/// Build the BDDs of a gate netlist's outputs and next-state functions.
SymbolicMachine build_machine(bdd::BddManager& mgr,
                              const circuit::GateNetlist& net,
                              const std::function<int(int)>& input_var,
                              const std::function<int(int)>& state_var,
                              const std::function<int(int)>& next_var);

/// Product-machine context shared by the symbolic verifiers.
struct Product {
  ProductLayout layout;
  SymbolicMachine a, b;
  bdd::BddId miscompare;        // exists an input making outputs differ
  std::vector<int> quantify;    // inputs + both present-state vars
  std::map<int, int> next_to_present;
};

/// Throws BddError via the manager on node-limit blowup; the callers
/// convert that into `completed = false`.
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
