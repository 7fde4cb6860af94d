#include "verify/cone.h"

#include <map>
#include <tuple>
#include <utility>

namespace eda::verify {

using circuit::GateNetlist;
using circuit::GateNode;
using circuit::GateOp;
using circuit::LitId;

namespace {

/// Exact structural identity of two netlists (op/fan-in/init graphs plus
/// the input/dff/output wiring, names ignored).  Cone sides are canonical
/// extract_cones netlists, so equal cones are equal node-for-node — this
/// is the exact check behind the hash equality, not a probabilistic one.
bool structurally_identical(const GateNetlist& a, const GateNetlist& b) {
  if (a.nodes().size() != b.nodes().size() ||
      a.inputs() != b.inputs() || a.dffs() != b.dffs() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const GateNode& na = a.nodes()[i];
    const GateNode& nb = b.nodes()[i];
    if (na.op != nb.op || na.a != nb.a || na.b != nb.b ||
        na.next != nb.next || na.init != nb.init) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    if (a.outputs()[i].second != b.outputs()[i].second) return false;
  }
  return true;
}

/// Gate constructor with hash-consing and local folding: the structural
/// analogue of the kernel's interner, scoped to one miter build.
struct MiterBuilder {
  GateNetlist net;
  LitId c0 = -1, c1 = -1;
  std::map<std::tuple<int, LitId, LitId>, LitId> cse;

  LitId konst(bool v) {
    LitId& c = v ? c1 : c0;
    if (c < 0) c = net.add_const(v);
    return c;
  }
  bool is_const(LitId l, bool v) const {
    GateOp op = net.node(l).op;
    return v ? op == GateOp::Const1 : op == GateOp::Const0;
  }
  LitId cse_gate(GateOp op, LitId x, LitId y) {
    auto key = std::make_tuple(static_cast<int>(op), x, y);
    if (auto it = cse.find(key); it != cse.end()) return it->second;
    LitId l = y < 0 ? net.add_gate(op, x) : net.add_gate(op, x, y);
    cse.emplace(key, l);
    return l;
  }
  LitId mk_not(LitId x) {
    if (is_const(x, false)) return konst(true);
    if (is_const(x, true)) return konst(false);
    if (net.node(x).op == GateOp::Not) return net.node(x).a;
    return cse_gate(GateOp::Not, x, -1);
  }
  LitId mk_bin(GateOp op, LitId x, LitId y) {
    if (x > y) std::swap(x, y);  // And/Or/Xor all commute
    switch (op) {
      case GateOp::And:
        if (x == y) return x;
        if (is_const(x, false) || is_const(y, false)) return konst(false);
        if (is_const(x, true)) return y;
        if (is_const(y, true)) return x;
        break;
      case GateOp::Or:
        if (x == y) return x;
        if (is_const(x, true) || is_const(y, true)) return konst(true);
        if (is_const(x, false)) return y;
        if (is_const(y, false)) return x;
        break;
      case GateOp::Xor:
        if (x == y) return konst(false);
        if (is_const(x, false)) return y;
        if (is_const(y, false)) return x;
        if (is_const(x, true)) return mk_not(y);
        if (is_const(y, true)) return mk_not(x);
        break;
      default:
        throw ConeError("MiterBuilder: not a binary gate op");
    }
    return cse_gate(op, x, y);
  }

  /// Copy one side into the shared builder, returning the old→new map.
  /// Inputs must already be mapped (shared between sides); gates go
  /// through the folding constructors, which is where side B's logic
  /// dedupes against side A's.
  std::vector<LitId> copy_side(const GateNetlist& side,
                               const std::vector<LitId>& input_map,
                               const char* prefix) {
    std::vector<LitId> remap(side.nodes().size(), -1);
    for (std::size_t k = 0; k < side.inputs().size(); ++k) {
      remap[static_cast<std::size_t>(side.inputs()[k])] = input_map[k];
    }
    for (LitId d : side.dffs()) {
      const GateNode& n = side.node(d);
      remap[static_cast<std::size_t>(d)] =
          net.add_dff(prefix + n.name, n.init);
    }
    for (std::size_t idx = 0; idx < side.nodes().size(); ++idx) {
      const GateNode& n = side.nodes()[idx];
      LitId& slot = remap[idx];
      switch (n.op) {
        case GateOp::Input:
        case GateOp::Dff:
          break;  // mapped above
        case GateOp::Const0:
          slot = konst(false);
          break;
        case GateOp::Const1:
          slot = konst(true);
          break;
        case GateOp::Not:
          slot = mk_not(remap[static_cast<std::size_t>(n.a)]);
          break;
        default:
          slot = mk_bin(n.op, remap[static_cast<std::size_t>(n.a)],
                        remap[static_cast<std::size_t>(n.b)]);
          break;
      }
    }
    for (LitId d : side.dffs()) {
      net.set_dff_next(remap[static_cast<std::size_t>(d)],
                       remap[static_cast<std::size_t>(side.node(d).next)]);
    }
    return remap;
  }
};

}  // namespace

std::vector<ConePair> pair_cones(const GateNetlist& a, const GateNetlist& b) {
  if (a.outputs().size() != b.outputs().size()) {
    throw ConeError("pair_cones: output-count mismatch (" +
                    std::to_string(a.outputs().size()) + " vs " +
                    std::to_string(b.outputs().size()) + ")");
  }
  std::vector<io::Cone> ca = io::extract_cones(a);
  std::vector<io::Cone> cb = io::extract_cones(b);
  std::vector<ConePair> pairs;
  pairs.reserve(ca.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ConePair p;
    p.output = ca[i].output;
    p.hash_a = ca[i].hash;
    p.hash_b = cb[i].hash;
    p.a = std::move(ca[i].net);
    p.b = std::move(cb[i].net);
    pairs.push_back(std::move(p));
  }
  return pairs;
}

GateNetlist build_miter(const GateNetlist& a, const GateNetlist& b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw ConeError("build_miter: interface mismatch");
  }
  MiterBuilder mb;
  std::vector<LitId> input_map;
  input_map.reserve(a.inputs().size());
  for (LitId in : a.inputs()) {
    input_map.push_back(mb.net.add_input(a.node(in).name));
  }
  std::vector<LitId> ma = mb.copy_side(a, input_map, "a.");
  std::vector<LitId> mbm = mb.copy_side(b, input_map, "b.");
  LitId acc = mb.konst(false);
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    LitId x = mb.mk_bin(
        GateOp::Xor, ma[static_cast<std::size_t>(a.outputs()[i].second)],
        mbm[static_cast<std::size_t>(b.outputs()[i].second)]);
    acc = mb.mk_bin(GateOp::Or, acc, x);
  }
  mb.net.add_output("miter", acc);
  mb.net.validate();
  return mb.net;
}

bool miter_output_is_const(const GateNetlist& miter, bool value) {
  GateOp op = miter.node(miter.outputs().front().second).op;
  return value ? op == GateOp::Const1 : op == GateOp::Const0;
}

std::optional<VerifyResult> check_cone_fast(const ConeJob& job,
                                            std::uint64_t* sim_spent) {
  const ConePair& p = *job.pair;
  if (sim_spent != nullptr) *sim_spent = 0;
  // Tier 1: structurally identical sides — equal graphs compute equal
  // functions; no engine, no miter.
  if (structurally_identical(p.a, p.b)) {
    VerifyResult v;
    v.completed = true;
    v.equivalent = true;
    return v;
  }
  // Tier 2: the folded miter.  A constant-0 output proves combinational
  // equality through shared logic (e.g. a double-negation edit folds
  // away); constant 1 means the outputs differ for EVERY input and state —
  // in particular the initial one — so it is a completed NONEQUIV.
  GateNetlist miter = build_miter(p.a, p.b);
  if (miter_output_is_const(miter, false) ||
      miter_output_is_const(miter, true)) {
    VerifyResult v;
    v.completed = true;
    v.equivalent = miter_output_is_const(miter, false);
    return v;
  }
  // Tier 3: bit-parallel random simulation.  X-pessimistic flop init
  // makes a refutation hold for every initial register assignment, so
  // NONEQUIV here agrees with any engine's verdict; a pass-through says
  // nothing and falls to the engine.
  if (job.use_sim) {
    sim::RefuteResult r = sim::refute(p, job.sim);
    if (r.refuted) {
      VerifyResult v;
      v.completed = true;
      v.equivalent = false;
      v.sim_refuted = true;
      v.sim_vectors = r.vectors;
      v.counterexample = r.cex.output;
      return v;
    }
    if (sim_spent != nullptr) *sim_spent = r.vectors;
  }
  return std::nullopt;
}

StitchedVerdict stitch_verdicts(const std::vector<ConeVerdict>& cones) {
  StitchedVerdict s;
  s.cones = cones.size();
  s.completed = true;
  bool nonequiv = false;
  for (const ConeVerdict& c : cones) {
    if (c.cache_hit) {
      ++s.hits;
    } else {
      ++s.reproved;
    }
    if (c.result.sim_refuted) ++s.sim_refuted;
    s.sim_vectors += c.result.sim_vectors;
    if (c.result.completed && !c.result.equivalent && !nonequiv) {
      nonequiv = true;
      s.counterexample = c.output.empty() ? c.result.counterexample : c.output;
    }
    if (!c.result.completed) s.completed = false;
  }
  // NONEQUIV short-circuit: one differing output settles the design.
  if (nonequiv) s.completed = true;
  s.equivalent = s.completed && !nonequiv;
  return s;
}

}  // namespace eda::verify
