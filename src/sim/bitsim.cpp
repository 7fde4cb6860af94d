#include "sim/bitsim.h"

#include <random>

#include "verify/cone.h"

namespace eda::sim {

using circuit::GateNetlist;
using circuit::GateOp;

BitSimulator::BitSimulator(const GateNetlist& net) {
  net.validate();
  ops_.reserve(net.nodes().size());
  for (const circuit::GateNode& n : net.nodes()) {
    Op op;
    op.code = static_cast<std::uint8_t>(n.op);
    op.a = n.a;
    op.b = n.b;
    ops_.push_back(op);
  }
  val_.assign(ops_.size(), 0);
  known_.assign(ops_.size(), 0);
  for (circuit::LitId in : net.inputs()) input_slots_.push_back(in);
  for (circuit::LitId d : net.dffs()) {
    dff_slots_.push_back(d);
    dff_next_.push_back(net.node(d).next);
  }
  for (const auto& [name, lit] : net.outputs()) output_slots_.push_back(lit);
  out_.assign(output_slots_.size(), Packet{});
  reset();
}

void BitSimulator::reset() {
  // X-pessimistic init: nothing is known about any register.
  state_.assign(dff_slots_.size(), Packet{0, 0});
}

void BitSimulator::latch(const std::uint64_t* bits) {
  for (std::size_t k = 0; k < state_.size(); ++k) {
    std::uint64_t bit = (bits[k / 64] >> (k % 64)) & 1;
    state_[k] = Packet{0 - bit, ~0ULL};  // bit 1 -> all lanes 1
  }
}

void BitSimulator::step(const std::vector<std::uint64_t>& stimulus) {
  if (stimulus.size() != input_slots_.size()) {
    throw SimError("BitSimulator::step: stimulus arity mismatch");
  }
  std::uint64_t* val = val_.data();
  std::uint64_t* known = known_.data();
  for (std::size_t k = 0; k < input_slots_.size(); ++k) {
    std::size_t slot = static_cast<std::size_t>(input_slots_[k]);
    val[slot] = stimulus[k];
    known[slot] = ~0ULL;
  }
  for (std::size_t k = 0; k < dff_slots_.size(); ++k) {
    std::size_t slot = static_cast<std::size_t>(dff_slots_[k]);
    val[slot] = state_[k].val;
    known[slot] = state_[k].known;
  }
  // One pass in node-index order (fan-ins strictly precede gates, the same
  // invariant GateSimulator::eval and build_machine rely on).  Dual-rail
  // rules: a gate output is known exactly when its value is forced — by
  // both operands, or by one controlling operand.
  for (std::size_t idx = 0; idx < ops_.size(); ++idx) {
    const Op& op = ops_[idx];
    switch (static_cast<GateOp>(op.code)) {
      case GateOp::Const0:
        val[idx] = 0;
        known[idx] = ~0ULL;
        break;
      case GateOp::Const1:
        val[idx] = ~0ULL;
        known[idx] = ~0ULL;
        break;
      case GateOp::Input:
      case GateOp::Dff:
        break;  // seeded above
      case GateOp::And: {
        std::uint64_t va = val[op.a], ka = known[op.a];
        std::uint64_t vb = val[op.b], kb = known[op.b];
        val[idx] = va & vb;
        known[idx] = (ka & kb) | (ka & ~va) | (kb & ~vb);
        break;
      }
      case GateOp::Or: {
        std::uint64_t va = val[op.a], ka = known[op.a];
        std::uint64_t vb = val[op.b], kb = known[op.b];
        val[idx] = va | vb;
        known[idx] = (ka & kb) | (ka & va) | (kb & vb);
        break;
      }
      case GateOp::Xor: {
        val[idx] = val[op.a] ^ val[op.b];
        known[idx] = known[op.a] & known[op.b];
        break;
      }
      case GateOp::Not:
        val[idx] = ~val[op.a];
        known[idx] = known[op.a];
        break;
    }
  }
  for (std::size_t k = 0; k < output_slots_.size(); ++k) {
    std::size_t slot = static_cast<std::size_t>(output_slots_[k]);
    // Mask unknown lanes out of `val` so callers comparing raw words never
    // see X garbage agree or disagree by accident.
    out_[k] = Packet{val[slot] & known[slot], known[slot]};
  }
  for (std::size_t k = 0; k < dff_slots_.size(); ++k) {
    std::size_t slot = static_cast<std::size_t>(dff_next_[k]);
    state_[k] = Packet{val[slot] & known[slot], known[slot]};
  }
}

namespace {

/// Unpack lane `lane` of per-input stimulus words into one concrete input
/// vector.
std::vector<bool> lane_vector(const std::vector<std::uint64_t>& words,
                              int lane) {
  std::vector<bool> out;
  out.reserve(words.size());
  for (std::uint64_t w : words) out.push_back(((w >> lane) & 1) != 0);
  return out;
}

}  // namespace

RefuteResult refute(const GateNetlist& a, const GateNetlist& b,
                    const SimOptions& opts) {
  RefuteResult r;
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size() || a.outputs().empty()) {
    return r;  // not positionally comparable; the engine layer diagnoses
  }
  BitSimulator sa(a), sb(b);
  int frames = opts.frames < 1 ? 1 : opts.frames;
  int words = (opts.vectors + 63) / 64;
  if (words < 1) words = 1;
  std::mt19937_64 rng(opts.seed);
  std::vector<std::uint64_t> stimulus(a.inputs().size());
  // One word = 64 independent vectors; each vector is a fresh input
  // sequence over `frames` cycles from the X initial state.
  std::vector<std::vector<std::uint64_t>> history;
  for (int w = 0; w < words; ++w) {
    sa.reset();
    sb.reset();
    history.clear();
    for (int f = 0; f < frames; ++f) {
      for (std::uint64_t& word : stimulus) word = rng();
      history.push_back(stimulus);
      sa.step(stimulus);
      sb.step(stimulus);
      for (std::size_t k = 0; k < a.outputs().size(); ++k) {
        Packet pa = sa.output(static_cast<int>(k));
        Packet pb = sb.output(static_cast<int>(k));
        // A lane refutes only where BOTH sides are known: the values then
        // hold for every initial register assignment, so the mismatch is
        // real under any init semantics.
        std::uint64_t diff = (pa.val ^ pb.val) & pa.known & pb.known;
        if (diff == 0) continue;
        int lane = 0;
        while (((diff >> lane) & 1) == 0) ++lane;
        r.refuted = true;
        r.vectors += 64;
        r.cex.output_index = k;
        r.cex.output = a.outputs()[k].first;
        r.cex.frame = f;
        for (const std::vector<std::uint64_t>& fw : history) {
          r.cex.frames.push_back(lane_vector(fw, lane));
        }
        return r;
      }
    }
    r.vectors += 64;
  }
  return r;
}

RefuteResult refute(const verify::ConePair& pair, const SimOptions& opts) {
  RefuteResult r = refute(pair.a, pair.b, opts);
  if (r.refuted && !pair.output.empty()) r.cex.output = pair.output;
  return r;
}

}  // namespace eda::sim
