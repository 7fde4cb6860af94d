// Ablation: the retiming-specific verifier (paper ref [8], Huang/Cheng/
// Chen) against the general-purpose checkers and against HASH.
//
// Two messages from the related-work discussion are reproduced here:
//   1. On *pure retiming*, structural matching is very fast — it beats the
//      model checkers by orders of magnitude and scales like HASH.
//   2. On a *compound* retime+resynthesis step, the matcher gives up and
//      one must fall back to general verification, while HASH composes the
//      two steps' theorems for the cost of a transitivity application.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_gen/fig2.h"
#include "circuit/bitblast.h"
#include "hash/compound.h"
#include "hash/logic_opt.h"
#include "hash/retime_step.h"
#include "theories/retiming_thm.h"
#include "verify/retime_match.h"
#include "verify/parallel_verify.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string cell(bool ok, double sec) {
  if (!ok) return "      -";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%7.3f", sec);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double timeout = 5.0;
  int max_n = 32;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--timeout" && a + 1 < argc) timeout = std::stod(argv[++a]);
    if (arg == "--max-n" && a + 1 < argc) max_n = std::stoi(argv[++a]);
  }
  eda::thy::retiming_thm();

  std::printf("Ablation — retiming-specific matching (ref [8]) vs SMV vs "
              "HASH (fig. 2)\n\n");
  std::printf("%4s | %9s %9s %9s | %s\n", "n", "match", "SMV", "HASH",
              "compound step: match / HASH");

  for (int n = 1; n <= max_n; n *= 2) {
    auto fig2 = eda::bench_gen::make_fig2(n);

    // --- pure retiming -----------------------------------------------------
    eda::circuit::Rtl retimed =
        eda::hash::conventional_retime(fig2.rtl, fig2.good_cut);

    auto t0 = std::chrono::steady_clock::now();
    eda::verify::RetimeMatchResult m =
        eda::verify::verify_retiming(fig2.rtl, retimed);
    double match_s = seconds_since(t0);

    // Measure HASH before the model checker: an SMV blow-up leaves the
    // heap full of dead BDD nodes and contaminates whatever runs next.
    t0 = std::chrono::steady_clock::now();
    eda::hash::FormalRetimeResult hash_res =
        eda::hash::formal_retime(fig2.rtl, fig2.good_cut);
    double hash_s = seconds_since(t0);

    // --- compound retime + logic optimisation ------------------------------
    // Give the optimiser something to remove: a mux with a constant-true
    // select on the output, as resynthesis fodder.  The compound step is
    // then a genuine retime-then-minimise chain.
    eda::circuit::Rtl padded;
    {
      std::map<eda::circuit::SignalId, eda::circuit::SignalId> ctx;
      const eda::circuit::Rtl& src = fig2.rtl;
      for (std::size_t k = 0; k < src.nodes().size(); ++k) {
        auto s = static_cast<eda::circuit::SignalId>(k);
        const eda::circuit::Node& nd = src.nodes()[k];
        switch (nd.op) {
          case eda::circuit::Op::Input:
            ctx[s] = padded.add_input(nd.name, nd.width);
            break;
          case eda::circuit::Op::Reg:
            ctx[s] = padded.add_reg(nd.name, nd.width, nd.value);
            break;
          case eda::circuit::Op::Const:
            ctx[s] = nd.width == 0 ? padded.add_const_flag(nd.value != 0)
                                   : padded.add_const(nd.width, nd.value);
            break;
          default: {
            std::vector<eda::circuit::SignalId> ops;
            for (auto o : nd.operands) ops.push_back(ctx.at(o));
            ctx[s] = padded.add_op(nd.op, std::move(ops));
          }
        }
      }
      for (auto r : src.regs()) {
        padded.set_reg_next(ctx.at(r), ctx.at(src.node(r).next));
      }
      for (const auto& o : src.outputs()) {
        auto always = padded.add_const_flag(true);
        padded.add_output(o.name,
                          padded.add_op(eda::circuit::Op::Mux,
                                        {always, ctx.at(o.signal),
                                         ctx.at(o.signal)}));
      }
    }
    t0 = std::chrono::steady_clock::now();
    eda::hash::FormalRetimeResult rt2 =
        eda::hash::formal_retime(padded, fig2.good_cut);
    eda::hash::FormalOptResult opt = eda::hash::formal_logic_opt(rt2.retimed);
    eda::kernel::Thm compound =
        eda::hash::compose_steps(rt2.theorem, opt.theorem);
    double hash_compound_s = seconds_since(t0);
    (void)compound;

    eda::verify::RetimeMatchResult mc =
        eda::verify::verify_retiming(padded, opt.optimized);

    eda::verify::VerifyOptions opts;
    opts.timeout_sec = timeout;
    eda::circuit::GateNetlist ga = eda::circuit::bit_blast(fig2.rtl);
    eda::circuit::GateNetlist gb = eda::circuit::bit_blast(retimed);
    eda::verify::VerifyResult smv =
        eda::verify::run_check({&ga, &gb, eda::verify::Engine::Smv, opts});

    std::printf("%4d | %s %s %s |  %s      %7.3f\n", n,
                cell(m.equivalent, match_s).c_str(),
                cell(smv.completed, smv.seconds).c_str(),
                cell(true, hash_s).c_str(),
                mc.equivalent ? "accepts (!)" : "gives up  ",
                hash_compound_s);
  }
  std::printf("\n'gives up' = the matcher cannot handle the compound step "
              "(combinability drawback);\nHASH composes the theorems by one "
              "transitivity application.\n");
  return 0;
}
