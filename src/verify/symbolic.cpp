#include "verify/symbolic.h"

namespace eda::verify {

using bdd::BddId;
using bdd::BddManager;
using circuit::GateNetlist;
using circuit::GateOp;

SymbolicMachine build_machine(BddManager& mgr, const GateNetlist& net,
                              const std::function<int(int)>& input_var,
                              const std::function<int(int)>& state_var,
                              const std::function<int(int)>& next_var) {
  net.validate();
  std::vector<BddId> val(net.nodes().size(), 0);
  // Seed inputs and DFF outputs.
  for (std::size_t k = 0; k < net.inputs().size(); ++k) {
    val[static_cast<std::size_t>(net.inputs()[k])] =
        mgr.var(input_var(static_cast<int>(k)));
  }
  for (std::size_t k = 0; k < net.dffs().size(); ++k) {
    val[static_cast<std::size_t>(net.dffs()[k])] =
        mgr.var(state_var(static_cast<int>(k)));
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
    m.next_fn.push_back(val[static_cast<std::size_t>(d.next)]);
    m.state_vars.push_back(state_var(static_cast<int>(k)));
    m.next_vars.push_back(next_var(static_cast<int>(k)));
    BddId lit = d.init ? mgr.var(state_var(static_cast<int>(k)))
                       : mgr.nvar(state_var(static_cast<int>(k)));
    m.init = mgr.land(m.init, lit);
  }
  for (const auto& [name, lit] : net.outputs()) {
    m.outputs.push_back(val[static_cast<std::size_t>(lit)]);
  }
  return m;
}

int product_var_count(const GateNetlist& a, const GateNetlist& b) {
  ProductLayout l;
  l.ni = static_cast<int>(a.inputs().size());
  l.na = a.ff_count();
  l.nb = b.ff_count();
  return l.total();
}

Product build_product(BddManager& mgr, const GateNetlist& a,
                      const GateNetlist& b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw bdd::BddError("build_product: interface mismatch");
  }
  Product p;
  p.layout.ni = static_cast<int>(a.inputs().size());
  p.layout.na = a.ff_count();
  p.layout.nb = b.ff_count();
  const ProductLayout& L = p.layout;
  p.a = build_machine(
      mgr, a, [&](int j) { return L.input_var(j); },
      [&](int k) { return L.a_state(k); }, [&](int k) { return L.a_next(k); });
  p.b = build_machine(
      mgr, b, [&](int j) { return L.input_var(j); },
      [&](int k) { return L.b_state(k); }, [&](int k) { return L.b_next(k); });
  p.miscompare = mgr.false_bdd();
  for (std::size_t k = 0; k < p.a.outputs.size(); ++k) {
    p.miscompare =
        mgr.lor(p.miscompare, mgr.lxor(p.a.outputs[k], p.b.outputs[k]));
  }
  for (int j = 0; j < L.ni; ++j) p.quantify.push_back(L.input_var(j));
  for (int k = 0; k < L.na; ++k) {
    p.quantify.push_back(L.a_state(k));
    p.next_to_present.emplace(L.a_next(k), L.a_state(k));
  }
  for (int k = 0; k < L.nb; ++k) {
    p.quantify.push_back(L.b_state(k));
    p.next_to_present.emplace(L.b_next(k), L.b_state(k));
  }
  return p;
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
  BddManager mgr(static_cast<int>(a.inputs().size()));
  auto in = [](int j) { return j; };
  auto none = [](int) { return 0; };
  SymbolicMachine ma = build_machine(mgr, a, in, none, none);
  SymbolicMachine mb = build_machine(mgr, b, in, none, none);
  for (std::size_t k = 0; k < ma.outputs.size(); ++k) {
    if (ma.outputs[k] != mb.outputs[k]) return false;
  }
  return true;
}

}  // namespace eda::verify
