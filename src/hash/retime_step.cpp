#include "hash/retime_step.h"

#include <map>
#include <set>

#include "hash/eval.h"
#include "hash/term_build.h"
#include "logic/bool_thms.h"
#include "logic/rewrite.h"
#include "theories/numeral.h"
#include "theories/pair_theory.h"
#include "theories/retiming_thm.h"

namespace eda::hash {

using circuit::Node;
using circuit::Op;
using circuit::Rtl;
using circuit::SignalId;
using kernel::KernelError;
using kernel::Term;
using kernel::Thm;

namespace {

/// Machine evaluation of a cut signal (register / const / f-node) with the
/// registers at their initial values.  Mirrors Simulator semantics; the
/// formal derivation evaluates the same values through the logic, and the
/// two paths are cross-checked in formal_retime.
std::uint64_t eval_const_signal(const Rtl& rtl, SignalId s,
                                std::map<SignalId, std::uint64_t>& memo) {
  if (auto it = memo.find(s); it != memo.end()) return it->second;
  const Node& n = rtl.node(s);
  auto in = [&](int k) {
    return eval_const_signal(rtl, n.operands[static_cast<std::size_t>(k)],
                             memo);
  };
  std::uint64_t m = (n.width == 0) ? 1 : ((1ULL << n.width) - 1);
  std::uint64_t v = 0;
  switch (n.op) {
    case Op::Reg:
    case Op::Const:
      v = n.value;
      break;
    case Op::Add: v = (in(0) + in(1)) & m; break;
    case Op::Sub: v = (in(0) - in(1)) & m; break;
    case Op::Mul: v = (in(0) * in(1)) & m; break;
    case Op::Eq: v = in(0) == in(1) ? 1 : 0; break;
    case Op::Lt: v = in(0) < in(1) ? 1 : 0; break;
    case Op::Mux: v = in(0) ? in(1) : in(2); break;
    case Op::And: v = in(0) & in(1); break;
    case Op::Or: v = in(0) | in(1); break;
    case Op::Xor: v = in(0) ^ in(1); break;
    case Op::Not: v = (~in(0)) & m; break;
    case Op::FlagAnd: v = in(0) & in(1); break;
    case Op::FlagOr: v = in(0) | in(1); break;
    case Op::FlagNot: v = in(0) ^ 1; break;
    case Op::Input:
      throw CutError("eval_const_signal: input inside the cut");
  }
  memo.emplace(s, v);
  return v;
}

/// Recursively copy a combinational cone into `out` under a signal mapping.
SignalId copy_cone(const Rtl& rtl, SignalId s, Rtl& out,
                   std::map<SignalId, SignalId>& ctx) {
  if (auto it = ctx.find(s); it != ctx.end()) return it->second;
  const Node& n = rtl.node(s);
  SignalId ns;
  if (n.op == Op::Const) {
    ns = n.width == 0 ? out.add_const_flag(n.value != 0)
                      : out.add_const(n.width, n.value);
  } else if (n.op == Op::Input || n.op == Op::Reg) {
    throw CutError("copy_cone: unmapped leaf signal " + n.name);
  } else {
    std::vector<SignalId> ops;
    ops.reserve(n.operands.size());
    for (SignalId o : n.operands) ops.push_back(copy_cone(rtl, o, out, ctx));
    ns = out.add_op(n.op, std::move(ops));
  }
  ctx.emplace(s, ns);
  return ns;
}

}  // namespace

circuit::Rtl conventional_retime(const Rtl& rtl, const Cut& cut) {
  return conventional_retime_mapped(rtl, cut).rtl;
}

RetimeMapping conventional_retime_mapped(const Rtl& rtl, const Cut& cut) {
  // compile_split performs all the legality checks and determines chi; we
  // reuse it for the structural pass so that the conventional and formal
  // paths agree on the split by construction.
  SplitCircuit split = compile_split(rtl, cut);
  std::set<SignalId> F(cut.f_nodes.begin(), cut.f_nodes.end());

  Rtl out;
  std::map<SignalId, SignalId> gctx;  // original signal -> retimed signal

  // Inputs, unchanged.
  for (SignalId in : rtl.inputs()) {
    gctx.emplace(in, out.add_input(rtl.node(in).name, rtl.node(in).width));
  }
  // One register per chi component, initial value f(q) computed here by
  // machine evaluation (the theorem recomputes it in the logic).
  std::map<SignalId, std::uint64_t> init_memo;
  for (std::size_t k = 0; k < split.chi.size(); ++k) {
    SignalId c = split.chi[k];
    std::uint64_t init = eval_const_signal(rtl, c, init_memo);
    std::string name = rtl.node(c).op == Op::Reg
                           ? rtl.node(c).name
                           : "chi" + std::to_string(k);
    gctx.emplace(c, out.add_reg(name, rtl.node(c).width, init));
  }
  // g-part: every non-f combinational node, in original topological order.
  for (std::size_t idx = 0; idx < rtl.nodes().size(); ++idx) {
    SignalId s = static_cast<SignalId>(idx);
    const Node& n = rtl.nodes()[idx];
    if (gctx.count(s) > 0) continue;
    if (n.op == Op::Const) {
      gctx.emplace(s, n.width == 0 ? out.add_const_flag(n.value != 0)
                                   : out.add_const(n.width, n.value));
      continue;
    }
    bool comb = n.op != Op::Input && n.op != Op::Reg;
    if (!comb || F.count(s) > 0) continue;
    std::vector<SignalId> ops;
    ops.reserve(n.operands.size());
    for (SignalId o : n.operands) {
      auto it = gctx.find(o);
      if (it == gctx.end()) {
        throw CutError("conventional_retime: operand escapes the cut");
      }
      ops.push_back(it->second);
    }
    gctx.emplace(s, out.add_op(n.op, std::move(ops)));
  }
  // Outputs straight out of g.
  for (const circuit::OutputPort& o : rtl.outputs()) {
    out.add_output(o.name, gctx.at(o.signal));
  }
  // f-part, recomputed over the *next-state* signals sigma' produced by g:
  // map each original register to its next-value signal in the new netlist.
  std::map<SignalId, SignalId> fctx;
  for (SignalId r : rtl.regs()) fctx.emplace(r, gctx.at(rtl.node(r).next));
  for (std::size_t k = 0; k < split.chi.size(); ++k) {
    SignalId next = copy_cone(rtl, split.chi[k], out, fctx);
    out.set_reg_next(gctx.at(split.chi[k]), next);
  }
  out.validate();

  RetimeMapping mapping;
  mapping.rtl = std::move(out);
  for (std::size_t idx = 0; idx < rtl.nodes().size(); ++idx) {
    SignalId s = static_cast<SignalId>(idx);
    const Node& n = rtl.nodes()[idx];
    bool comb = n.op != Op::Input && n.op != Op::Reg && n.op != Op::Const;
    if (!comb) continue;
    if (F.count(s) > 0) {
      if (auto it = fctx.find(s); it != fctx.end()) {
        mapping.comb_map.emplace(s, it->second);
      }
    } else if (auto it = gctx.find(s); it != gctx.end()) {
      mapping.comb_map.emplace(s, it->second);
    }
  }
  return mapping;
}

FormalRetimeResult formal_retime(const Rtl& rtl, const Cut& cut) {
  return formal_retime(rtl, cut, compile(rtl), compile_split(rtl, cut));
}

FormalRetimeResult formal_retime(const Rtl& rtl, const Cut& cut,
                                 const CompiledCircuit& orig,
                                 const SplitCircuit& split) {
  // Step 1, the split of the combinational part, is `split` (compile_split
  // throws CutError on a false cut).
  Rtl retimed_rtl = conventional_retime(rtl, cut);
  CompiledCircuit retimed = compile(retimed_rtl);

  // Step 2: instantiate the universal retiming theorem.
  Thm inst = logic::pspec_list({split.f, split.g, orig.q},
                               thy::retiming_thm());
  // Remaining binders: i and t.
  auto [iv, rest] = logic::dest_forall(inst.concl());
  Thm inst1 = logic::spec(iv, inst);
  auto [tv, body] = logic::dest_forall(inst1.concl());
  (void)body;
  Thm inst2 = logic::spec(tv, inst1);
  Term concl = inst2.concl();
  Term lhs = kernel::eq_lhs(concl);
  Term rhs = kernel::eq_rhs(concl);
  auto [aut_head, largs] = kernel::strip_comb(lhs);
  auto [aut_head2, rargs] = kernel::strip_comb(rhs);
  if (largs.size() != 4 || rargs.size() != 4) {
    throw KernelError("formal_retime: unexpected theorem shape");
  }

  // Step 1 (continued): relate the split form h1 to the original compiled
  // transition function by reduction — this is the formal content of
  // "splitting" the combinational part.
  const logic::Conv& reduce = detail::pair_reduce_conv();
  Thm red1 = reduce(largs[0]);  // h1 = <flat form>
  if (!(kernel::eq_rhs(red1.concl()) == orig.h)) {
    throw KernelError(
        "formal_retime: the split does not reduce to the original "
        "transition function");
  }
  Thm th_l = Thm::trans(red1, Thm::alpha(kernel::eq_rhs(red1.concl()),
                                         orig.h));

  // Step 3: join f and g — reduce h2 to a single combinational function.
  Thm red2 = reduce(rargs[0]);  // h2 = <joined form>
  if (!(kernel::eq_rhs(red2.concl()) == retimed.h)) {
    throw KernelError(
        "formal_retime: joined transition function does not match the "
        "retimed netlist");
  }
  Thm th_r = Thm::trans(red2, Thm::alpha(kernel::eq_rhs(red2.concl()),
                                         retimed.h));

  // Step 4: evaluate the new initial values f(q).
  Thm eval_thm = ground_eval(rargs[1]);  // f q = q'
  Term q_new = kernel::eq_rhs(eval_thm.concl());
  if (!(q_new == retimed.q)) {
    throw KernelError(
        "formal_retime: evaluated initial state disagrees with the retimed "
        "netlist (logic vs machine evaluation)");
  }

  // Assemble:  AUT h_flat q i t = AUT h_joined q' i t.
  Thm lchain = Thm::mk_comb(
      Thm::mk_comb(Thm::mk_comb(logic::ap_term(aut_head, th_l),
                                Thm::refl(largs[1])),
                   Thm::refl(largs[2])),
      Thm::refl(largs[3]));
  Thm rchain = Thm::mk_comb(
      Thm::mk_comb(Thm::mk_comb(logic::ap_term(aut_head2, th_r), eval_thm),
                   Thm::refl(rargs[2])),
      Thm::refl(rargs[3]));
  Thm final_thm =
      Thm::trans(Thm::trans(logic::sym(lchain), inst2), rchain);
  final_thm = logic::gen_list({iv, tv}, final_thm);

  return FormalRetimeResult{final_thm, std::move(retimed_rtl), split.f,
                            split.g, split.chi};
}

}  // namespace eda::hash
