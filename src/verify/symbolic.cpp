#include "verify/symbolic.h"

#include <algorithm>

namespace eda::verify {

using bdd::BddId;
using bdd::BddManager;
using circuit::GateNetlist;
using circuit::GateOp;
using circuit::LitId;

namespace {

/// One side of one pair during product_layout's walk.
struct Walk {
  const GateNetlist* net = nullptr;
  Side side = Side::A;
  /// Node -> its input or register index.
  std::vector<int> index;
  std::vector<char> seen;
  /// Registers in first-visit order; found[0, expanded) have had their
  /// next-state functions walked.
  std::vector<int> found;
  std::size_t expanded = 0;

  Walk(const GateNetlist& n, Side s)
      : net(&n),
        side(s),
        index(n.nodes().size(), -1),
        seen(n.nodes().size(), 0) {
    for (std::size_t j = 0; j < n.inputs().size(); ++j) {
      index[static_cast<std::size_t>(n.inputs()[j])] = static_cast<int>(j);
    }
    for (std::size_t k = 0; k < n.dffs().size(); ++k) {
      index[static_cast<std::size_t>(n.dffs()[k])] = static_cast<int>(k);
    }
  }
};

class LayoutBuilder {
 public:
  LayoutBuilder(std::size_t ni, std::size_t na, std::size_t nb) {
    L_.input.assign(ni, -1);
    L_.state[0].assign(na, -1);
    L_.state[1].assign(nb, -1);
  }

  /// Depth-first from `root` through the fan-ins, operand a first,
  /// stopping at inputs and registers.
  void walk(Walk& w, LitId root) {
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const auto l = static_cast<std::size_t>(stack_.back());
      stack_.pop_back();
      if (w.seen[l]) continue;
      w.seen[l] = 1;
      const circuit::GateNode& n = w.net->nodes()[l];
      switch (n.op) {
        case GateOp::Const0:
        case GateOp::Const1:
          break;
        case GateOp::Input:
          place_input(w.index[l]);
          break;
        case GateOp::Dff:
          place_state(w.side, w.index[l]);
          w.found.push_back(w.index[l]);
          break;
        default:
          if (n.b >= 0) stack_.push_back(n.b);
          stack_.push_back(n.a);
          break;
      }
    }
  }

  /// Walk the next-state function of `w`'s next found register; false
  /// when every found register has been expanded.
  bool expand_one(Walk& w) {
    if (w.expanded == w.found.size()) return false;
    const int k = w.found[w.expanded++];
    const LitId next =
        w.net->node(w.net->dffs()[static_cast<std::size_t>(k)]).next;
    if (next >= 0) walk(w, next);
    return true;
  }

  ProductLayout finish() {
    for (std::size_t j = 0; j < L_.input.size(); ++j) {
      place_input(static_cast<int>(j));
    }
    for (Side s : {Side::A, Side::B}) {
      const std::size_t n = L_.state[static_cast<int>(s)].size();
      for (std::size_t k = 0; k < n; ++k) place_state(s, static_cast<int>(k));
    }
    return std::move(L_);
  }

 private:
  void place_input(int j) {
    int& v = L_.input[static_cast<std::size_t>(j)];
    if (v >= 0) return;
    v = L_.total();
    L_.role.push_back(VarRole::Input);
    L_.next_to_present.push_back(v);
  }

  void place_state(Side s, int k) {
    int& v = L_.state[static_cast<int>(s)][static_cast<std::size_t>(k)];
    if (v >= 0) return;
    v = L_.total();
    const bool a = s == Side::A;
    L_.role.push_back(a ? VarRole::AState : VarRole::BState);
    L_.role.push_back(a ? VarRole::ANext : VarRole::BNext);
    L_.next_to_present.push_back(v);
    L_.next_to_present.push_back(v);
  }

  ProductLayout L_;
  std::vector<LitId> stack_;
};

}  // namespace

ProductLayout product_layout(const std::vector<NetlistPair>& pairs) {
  std::size_t ni = 0, na = 0, nb = 0;
  for (const auto& [a, b] : pairs) {
    ni = std::max({ni, a->inputs().size(), b->inputs().size()});
    na = std::max(na, a->dffs().size());
    nb = std::max(nb, b->dffs().size());
  }
  LayoutBuilder builder(ni, na, nb);
  std::vector<std::pair<Walk, Walk>> walks;
  walks.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    auto& [wa, wb] = walks.emplace_back(Walk(*a, Side::A), Walk(*b, Side::B));
    const std::size_t outs = std::max(a->outputs().size(), b->outputs().size());
    for (std::size_t o = 0; o < outs; ++o) {
      if (o < a->outputs().size()) builder.walk(wa, a->outputs()[o].second);
      if (o < b->outputs().size()) builder.walk(wb, b->outputs()[o].second);
    }
  }
  for (auto& [wa, wb] : walks) {
    // Each round expands one register per side.
    for (bool more = true; more;) {
      more = builder.expand_one(wa);
      more = builder.expand_one(wb) || more;
    }
  }
  return builder.finish();
}

SymbolicMachine build_machine(BddManager& mgr, const GateNetlist& net,
                              const ProductLayout& layout, Side side) {
  net.validate();
  std::vector<BddId> val(net.nodes().size(), 0);
  // Seed inputs and DFF outputs.
  for (std::size_t k = 0; k < net.inputs().size(); ++k) {
    val[static_cast<std::size_t>(net.inputs()[k])] =
        mgr.var(layout.input_var(static_cast<int>(k)));
  }
  for (std::size_t k = 0; k < net.dffs().size(); ++k) {
    val[static_cast<std::size_t>(net.dffs()[k])] =
        mgr.var(layout.state_var(side, static_cast<int>(k)));
  }
  for (std::size_t idx = 0; idx < net.nodes().size(); ++idx) {
    const circuit::GateNode& n = net.nodes()[idx];
    switch (n.op) {
      case GateOp::Const0: val[idx] = mgr.false_bdd(); break;
      case GateOp::Const1: val[idx] = mgr.true_bdd(); break;
      case GateOp::Input:
      case GateOp::Dff:
        break;
      case GateOp::And:
        val[idx] = mgr.land(val[static_cast<std::size_t>(n.a)],
                            val[static_cast<std::size_t>(n.b)]);
        break;
      case GateOp::Or:
        val[idx] = mgr.lor(val[static_cast<std::size_t>(n.a)],
                           val[static_cast<std::size_t>(n.b)]);
        break;
      case GateOp::Xor:
        val[idx] = mgr.lxor(val[static_cast<std::size_t>(n.a)],
                            val[static_cast<std::size_t>(n.b)]);
        break;
      case GateOp::Not:
        val[idx] = mgr.lnot(val[static_cast<std::size_t>(n.a)]);
        break;
    }
  }
  SymbolicMachine m;
  m.init = mgr.true_bdd();
  for (std::size_t k = 0; k < net.dffs().size(); ++k) {
    const circuit::GateNode& d = net.node(net.dffs()[k]);
    const int s = layout.state_var(side, static_cast<int>(k));
    m.next_fn.push_back(val[static_cast<std::size_t>(d.next)]);
    m.state_vars.push_back(s);
    m.next_vars.push_back(layout.next_var(side, static_cast<int>(k)));
    m.init = mgr.land(m.init, d.init ? mgr.var(s) : mgr.nvar(s));
  }
  for (const auto& [name, lit] : net.outputs()) {
    m.outputs.push_back(val[static_cast<std::size_t>(lit)]);
  }
  return m;
}

int product_var_count(const GateNetlist& a, const GateNetlist& b) {
  return static_cast<int>(std::max(a.inputs().size(), b.inputs().size())) +
         2 * (a.ff_count() + b.ff_count());
}

Product build_product(BddManager& mgr, const ProductLayout& layout,
                      const GateNetlist& a, const GateNetlist& b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw bdd::BddError("build_product: interface mismatch");
  }
  Product p;
  p.a = build_machine(mgr, a, layout, Side::A);
  p.b = build_machine(mgr, b, layout, Side::B);
  p.miscompare = mgr.false_bdd();
  for (std::size_t k = 0; k < p.a.outputs.size(); ++k) {
    p.miscompare =
        mgr.lor(p.miscompare, mgr.lxor(p.a.outputs[k], p.b.outputs[k]));
  }
  for (std::size_t j = 0; j < a.inputs().size(); ++j) {
    p.quantify.push_back(layout.input_var(static_cast<int>(j)));
  }
  p.quantify.insert(p.quantify.end(), p.a.state_vars.begin(),
                    p.a.state_vars.end());
  p.quantify.insert(p.quantify.end(), p.b.state_vars.begin(),
                    p.b.state_vars.end());
  return p;
}

Product build_product(BddManager& mgr, const GateNetlist& a,
                      const GateNetlist& b) {
  return build_product(mgr, product_layout({{&a, &b}}), a, b);
}

bool combinational_equivalent(const GateNetlist& a, const GateNetlist& b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  // Combinational circuits only: reject if either has state.
  if (a.ff_count() != 0 || b.ff_count() != 0) {
    throw bdd::BddError("combinational_equivalent: circuit has registers");
  }
  const ProductLayout layout = product_layout({{&a, &b}});
  BddManager mgr(layout.total());
  SymbolicMachine ma = build_machine(mgr, a, layout, Side::A);
  SymbolicMachine mb = build_machine(mgr, b, layout, Side::B);
  for (std::size_t k = 0; k < ma.outputs.size(); ++k) {
    if (ma.outputs[k] != mb.outputs[k]) return false;
  }
  return true;
}

}  // namespace eda::verify
