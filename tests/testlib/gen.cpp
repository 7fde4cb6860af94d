#include "testlib/gen.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "theories/numeral.h"

namespace eda::testlib {

std::uint64_t stimulus_seed() {
  // Resolved and logged exactly once; function-local static init is
  // thread-safe, so concurrent first calls agree on the value.
  static const std::uint64_t seed = [] {
    std::uint64_t s = 0x5eedf17eULL;
    if (const char* env = std::getenv("EDA_SEED")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 0);
      if (end != env && *end == '\0') {
        s = static_cast<std::uint64_t>(v);
      } else {
        std::fprintf(stderr,
                     "testlib: malformed EDA_SEED '%s' ignored, using "
                     "default\n",
                     env);
      }
    }
    std::printf("testlib: stimulus seed %llu (override with EDA_SEED)\n",
                static_cast<unsigned long long>(s));
    std::fflush(stdout);
    return s;
  }();
  return seed;
}

namespace k = eda::kernel;
using k::Term;
using k::Type;

TermGen::TermGen(std::uint64_t seed, std::string binder_salt)
    : rng_(seed), binder_salt_(std::move(binder_salt)) {}

std::uint64_t TermGen::u64() { return rng_(); }

int TermGen::range(int lo, int hi) {
  return lo + static_cast<int>(rng_() % static_cast<std::uint64_t>(
                                            hi - lo + 1));
}

Type TermGen::random_type(int depth) {
  if (depth <= 0 || range(0, 2) == 0) {
    return range(0, 1) == 0 ? k::bool_ty() : k::num_ty();
  }
  Type a = random_type(depth - 1);
  Type b = random_type(depth - 1);
  return range(0, 1) == 0 ? k::fun_ty(a, b) : k::prod_ty(a, b);
}

Term TermGen::random_term(const Type& ty, int depth) {
  // Leaf: an in-scope bound variable of the right type when one exists
  // (and the dice agree), else a free variable from a deliberately small
  // pool — shared spellings force interner sharing across generated terms.
  auto make_leaf = [&]() -> Term {
    std::vector<Term> candidates;
    for (const Term& v : scope_) {
      if (v.type() == ty) candidates.push_back(v);
    }
    // One draw decides both "use a bound var?" and which pool name —
    // consuming the SAME rng stream regardless of the outcome keeps two
    // salt-variant generators in lockstep.
    int pick = range(0, 3);
    if (!candidates.empty() && pick != 0) {
      return candidates[static_cast<std::size_t>(
          range(0, static_cast<int>(candidates.size()) - 1))];
    }
    return Term::var("x" + std::to_string(range(0, 3)), ty);
  };
  if (depth <= 0) return make_leaf();
  int choice = range(0, 5);
  if (choice == 0) return make_leaf();
  if (ty == k::bool_ty() && choice <= 2) {
    Type elem = random_type(1);
    Term lhs = random_term(elem, depth - 1);
    Term rhs = random_term(elem, depth - 1);
    return k::mk_eq(lhs, rhs);
  }
  if (k::is_fun_ty(ty) && choice <= 4) {
    Term v = Term::var(binder_salt_ + std::to_string(binder_count_++),
                       k::dom_ty(ty));
    scope_.push_back(v);
    Term body = random_term(k::cod_ty(ty), depth - 1);
    scope_.pop_back();
    return Term::abs(v, body);
  }
  // Application: pick a small argument type, build f : a -> ty and x : a.
  Type arg = random_type(1);
  Term f = random_term(k::fun_ty(arg, ty), depth - 1);
  Term x = random_term(arg, depth - 1);
  return Term::comb(f, x);
}

Term TermGen::random_goal(int depth) {
  return random_term(k::bool_ty(), depth);
}

std::vector<const void*> build_family(int rounds) {
  std::vector<const void*> ids;
  Term t = Term::var("x", k::bool_ty());
  ids.push_back(t.node_id());
  for (int i = 0; i < rounds; ++i) {
    t = k::mk_eq(t, t);
    ids.push_back(t.node_id());
    Term leaf = Term::var("y" + std::to_string(i % 7), k::bool_ty());
    ids.push_back(k::mk_eq(leaf, leaf).node_id());
    Term n = eda::thy::mk_numeral(static_cast<std::uint64_t>(i % 97));
    ids.push_back(n.node_id());
  }
  return ids;
}

Term eq_tower(int depth, const std::string& leaf) {
  Term t = Term::var(leaf, k::bool_ty());
  for (int i = 0; i < depth; ++i) t = k::mk_eq(t, t);
  return t;
}

namespace {

/// Shared body of random_netlist / random_netlist_multi: the machine
/// without its output list.  Returns the literal construction order so the
/// wrappers can tap outputs.  The rng stream is consumed identically for
/// both wrappers — same seed, same internal logic.
circuit::GateNetlist random_machine(std::uint64_t seed, int inputs,
                                    int gates, int ffs,
                                    std::vector<circuit::LitId>& lits) {
  using circuit::GateNetlist;
  using circuit::GateOp;
  using circuit::LitId;
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  GateNetlist net;
  for (int i = 0; i < inputs; ++i) {
    lits.push_back(net.add_input("in" + std::to_string(i)));
  }
  for (int i = 0; i < ffs; ++i) {
    lits.push_back(net.add_dff("ff" + std::to_string(i), (rng() & 1) != 0));
  }
  for (int i = 0; i < gates; ++i) {
    GateOp op = static_cast<GateOp>(
        static_cast<int>(GateOp::And) + pick(3));  // And / Or / Xor
    if (pick(5) == 0) op = GateOp::Not;
    LitId a = lits[static_cast<std::size_t>(pick(
        static_cast<int>(lits.size())))];
    LitId b = lits[static_cast<std::size_t>(pick(
        static_cast<int>(lits.size())))];
    lits.push_back(op == GateOp::Not ? net.add_gate(op, a)
                                     : net.add_gate(op, a, b));
  }
  for (int i = 0; i < ffs; ++i) {
    // Next-state from the tail of the literal list: every flop depends on
    // recent logic, keeping the machine connected.
    LitId next = lits[lits.size() - 1 -
                      static_cast<std::size_t>(pick(
                          static_cast<int>(lits.size()) / 2 + 1))];
    net.set_dff_next(net.dffs()[static_cast<std::size_t>(i)], next);
  }
  return net;
}

}  // namespace

circuit::GateNetlist random_netlist(std::uint64_t seed, int inputs,
                                    int gates, int ffs) {
  std::vector<circuit::LitId> lits;
  circuit::GateNetlist net = random_machine(seed, inputs, gates, ffs, lits);
  net.add_output("out", lits.back());
  net.validate();
  return net;
}

circuit::GateNetlist random_netlist_multi(std::uint64_t seed, int inputs,
                                          int gates, int ffs, int outputs) {
  std::vector<circuit::LitId> lits;
  circuit::GateNetlist net = random_machine(seed, inputs, gates, ffs, lits);
  if (outputs <= 0 || static_cast<std::size_t>(outputs) > lits.size()) {
    throw std::out_of_range("random_netlist_multi: bad output count");
  }
  // Tap distinct literals from the tail: out0 is the last literal (same
  // cone as random_netlist's "out"), out1 the one before, and so on.
  for (int i = 0; i < outputs; ++i) {
    net.add_output("out" + std::to_string(i),
                   lits[lits.size() - 1 - static_cast<std::size_t>(i)]);
  }
  net.validate();
  return net;
}

circuit::GateNetlist mutate_cone(const circuit::GateNetlist& net,
                                 std::size_t output_idx, ConeEdit edit) {
  using circuit::GateNetlist;
  using circuit::GateOp;
  using circuit::LitId;
  if (output_idx >= net.outputs().size()) {
    throw std::out_of_range("mutate_cone: bad output index");
  }
  // Rebuild node-for-node (the netlist API has no output re-pointing), so
  // every original literal keeps its id and the inverters append at the
  // end — the other cones' canonical extraction never sees them.
  GateNetlist out;
  for (const circuit::GateNode& n : net.nodes()) {
    switch (n.op) {
      case GateOp::Const0:
        out.add_const(false);
        break;
      case GateOp::Const1:
        out.add_const(true);
        break;
      case GateOp::Input:
        out.add_input(n.name);
        break;
      case GateOp::Dff:
        out.add_dff(n.name, n.init);
        break;
      case GateOp::Not:
        out.add_gate(GateOp::Not, n.a);
        break;
      default:
        out.add_gate(n.op, n.a, n.b);
        break;
    }
  }
  for (LitId d : net.dffs()) out.set_dff_next(d, net.node(d).next);
  for (std::size_t i = 0; i < net.outputs().size(); ++i) {
    const auto& [name, lit] = net.outputs()[i];
    LitId target = lit;
    if (i == output_idx) {
      switch (edit) {
        case ConeEdit::Equivalent:
          target = out.add_gate(GateOp::Not, out.add_gate(GateOp::Not, lit));
          break;
        case ConeEdit::EquivalentOpaque: {
          if (net.inputs().empty()) {
            throw std::out_of_range(
                "mutate_cone: EquivalentOpaque needs a primary input");
          }
          LitId red = out.add_gate(GateOp::And, lit, net.inputs().front());
          target = out.add_gate(GateOp::Or, lit, red);
          break;
        }
        case ConeEdit::Different:
          target = out.add_gate(GateOp::Not, lit);
          break;
      }
    }
    out.add_output(name, target);
  }
  out.validate();
  return out;
}

circuit::GateNetlist inverter_chain(int depth) {
  circuit::GateNetlist net;
  circuit::LitId l = net.add_input("x");
  for (int i = 0; i < depth; ++i) {
    l = net.add_gate(circuit::GateOp::Not, l);
  }
  net.add_output("y", l);
  return net;
}

}  // namespace eda::testlib
