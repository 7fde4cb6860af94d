// Table I of the paper: the scalable example circuit from figure 2 at
// increasing bitwidths n.  For each n the retiming is performed *formally*
// with HASH (time reported in the HASH column) and verified post-hoc with
// the SIS-style explicit FSM comparison and the SMV-style symbolic model
// checker.  A "-" marks a run that exceeded its resource budget, matching
// the dashes in the paper.
//
// Expected shape (paper, section V): SIS and SMV degrade quickly as the
// flip-flop count grows; HASH has a higher constant cost but grows only
// moderately with n because the RT-level term is width-independent except
// for the initial-value evaluation.
//
// After the table come the paper's other claims on the figure-2 family,
// each as rows of the same shape: backward against forward retiming, the
// compound step, the cut size, RT level against bit level, and the
// retiming-specific matcher.  They run serially after the table, so on a
// serial run every inference count repeats exactly.
//
// `--json FILE` also writes every row as data (paper_table.h), which
// tools/check_tables.py gates.  The exit status is 1 when a completed
// engine reports NONEQUIV: every row pairs a circuit with a correct
// retiming of it.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_gen/fig2.h"
#include "circuit/bitblast.h"
#include "hash/backward.h"
#include "hash/compound.h"
#include "hash/logic_opt.h"
#include "hash/retime_step.h"
#include "kernel/parallel.h"
#include "paper_table.h"
#include "theories/retiming_thm.h"
#include "verify/parallel_verify.h"
#include "verify/retime_match.h"
#include "verify/sis_fsm.h"

namespace {

namespace bg = eda::bench_gen;
namespace c = eda::circuit;
namespace h = eda::hash;
namespace v = eda::verify;
using eda::bench::Clock;
using eda::bench::measure;
using eda::bench::Row;
using eda::bench::seconds_since;

// Section IV.A: backward retiming is "more complex since one has to find
// the q's corresponding to some expression representing f(q)".  Each row
// runs the forward step, then undoes it with the backward step; `solve`
// times the backward split plus the initial-state solver (step 2).
std::vector<Row> backward_rows() {
  std::vector<Row> rows;
  for (int n : {2, 4, 8, 12, 16, 24, 32}) {
    Row row("backward", std::to_string(n));
    auto fig2 = bg::make_fig2(n);
    auto forward = [&] { return h::formal_retime(fig2.rtl, fig2.good_cut); };
    h::FormalRetimeResult fwd = measure(row, "forward", forward);
    auto map = h::conventional_retime_mapped(fig2.rtl, fig2.good_cut);
    h::BackwardCut inv = h::inverse_of_forward_cut(map, fig2.good_cut);
    measure(row, "solve", [&] {
      h::BackwardSplit split = h::compile_backward_split(fwd.retimed, inv);
      return h::solve_initial_state(fwd.retimed, inv, split.chi);
    });
    auto backward = [&] { return h::formal_backward_retime(fwd.retimed, inv); };
    measure(row, "backward", backward);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Section III.A: a compound retime + minimise step is verified by one
// transitivity rule on shared structure, so it costs the sum of its parts
// and `compose` costs the same at every n.
std::vector<Row> compound_rows() {
  std::vector<Row> rows;
  for (int n : {2, 4, 8, 16, 24, 32}) {
    Row row("compound", std::to_string(n));
    auto fig2 = bg::make_fig2(n);
    auto retime = [&] { return h::formal_retime(fig2.rtl, fig2.good_cut); };
    auto rt = measure(row, "retime", retime);
    auto minimise = [&] { return h::formal_logic_opt(rt.retimed); };
    auto op = measure(row, "minimise", minimise);
    auto compose = [&] { return h::compose_steps(rt.theorem, op.theorem); };
    measure(row, "compose", compose);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Section V: HASH time "depends on the size of the circuit but is quite
// independent from the cut.  Due to step 3 it becomes a little slower for
// large sized functions f."  Each row moves the first |f| incrementer
// stages of an 8-bit, 10-stage pipeline into f.
std::vector<Row> cut_rows() {
  std::vector<Row> rows;
  auto deep = bg::make_fig2_deep(8, 10);
  for (std::size_t m = 1; m <= deep.inc_nodes.size(); ++m) {
    Row row("cut", std::to_string(m));
    h::Cut cut;
    cut.f_nodes.assign(deep.inc_nodes.begin(),
                       deep.inc_nodes.begin() + static_cast<long>(m));
    auto retime = [&] { return h::formal_retime(deep.rtl, cut); };
    auto res = measure(row, "hash", retime);
    row.counts.push_back({"chi", res.chi.size()});
    rows.push_back(std::move(row));
  }
  return rows;
}

// Section V: "Operating at the RT-level reduces the complexity of steps
// 1-3."  The same retiming on the n-bit RT netlist (one register, word
// operators) and on its bit-level expansion (n one-bit registers, a
// ripple incrementer).
std::vector<Row> rtl_rows() {
  std::vector<Row> rows;
  for (int n : {1, 2, 3, 4, 5}) {
    Row row("rtl", std::to_string(n));
    auto rt = bg::make_fig2(n);
    auto bits = bg::make_fig2_bitlevel(n);
    measure(row, "rt", [&] { return h::formal_retime(rt.rtl, rt.good_cut); });
    measure(row, "bit", [&] { return h::formal_retime(bits.rtl, bits.cut); });
    rows.push_back(std::move(row));
  }
  return rows;
}

// Related work, ref [8] (Huang, Cheng & Chen): structural matching checks
// a pure retiming fast (Table I's SIS and SMV columns are the general
// checkers on the same pairs), but gives up on a compound retime +
// resynthesis step, which HASH composes by one transitivity rule.  The
// resynthesis removes a redundant output `if T then y else y`.
std::vector<Row> match_rows() {
  std::vector<Row> rows;
  for (int n = 1; n <= 32; n *= 2) {
    Row row("retime_match", std::to_string(n));
    auto fig2 = bg::make_fig2(n);
    c::Rtl retimed = h::conventional_retime(fig2.rtl, fig2.good_cut);
    const Clock::time_point t0 = Clock::now();
    bool accepts = v::verify_retiming(fig2.rtl, retimed).equivalent;
    row.seconds.push_back({"match", seconds_since(t0)});

    c::Rtl padded = fig2.rtl;
    c::SignalId y = padded.outputs().front().signal;
    c::SignalId always = padded.add_const_flag(true);
    padded.add_output("y_pad", padded.add_op(c::Op::Mux, {always, y, y}));
    auto opt = measure(row, "compound", [&] {
      auto rt = h::formal_retime(padded, fig2.good_cut);
      auto op = h::formal_logic_opt(rt.retimed);
      h::compose_steps(rt.theorem, op.theorem);
      return op;
    });
    bool gives_up = !v::verify_retiming(padded, opt.optimized).equivalent;
    row.counts.push_back({"match_accepts", accepts});
    row.counts.push_back({"compound_gives_up", gives_up});
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  double timeout = 5.0;
  int max_n = 40;
  // Default to serial: the per-engine wall-clock cells (and their timeout
  // verdicts) are the table's output, and concurrent rows competing for
  // cores would distort them and share the inference counter.  `--jobs N`
  // opts into the fan-out when throughput matters more than fidelity.
  unsigned jobs = 1;
  std::string json_path;
  // RT-level widths stop at 62 bits.
  eda::bench::Args("bench_table1")
      .number("--timeout", "SEC", timeout, 0.001, 86400.0)
      .number("--max-n", "N", max_n, 1, 62)
      .text("--json", "FILE", json_path)
      .number("--jobs", "N", jobs, 1u, 1024u)
      .parse(argc, argv);
  // parallel_map's caller participates, so a pool of jobs-1 workers gives
  // exactly `jobs` concurrent streams (same accounting as bench_parallel).
  if (jobs > 1) eda::kernel::set_global_thread_count(jobs - 1);

  // Prove the universal theorem once up front (the paper's "once and for
  // all"); its cost is excluded from the per-circuit HASH column exactly
  // as the paper excludes it.
  const Clock::time_point t0 = Clock::now();
  eda::thy::retiming_thm();
  double thm_sec = seconds_since(t0);
  std::printf("universal retiming theorem proved once in %.3f s\n", thm_sec);

  // Each row is an independent proof obligation; `--jobs` fans the table
  // out across the pool (HASH synthesis replays kernel inference
  // concurrently — the sharded interner is what makes this safe) and
  // prints in order at the end.  Wall-clock timeouts stay meaningful per
  // engine because each engine run measures its own elapsed time.
  std::vector<int> widths;
  for (int n = 1; n <= max_n; n = n < 8 ? n + 1 : n + (n < 16 ? 2 : 8)) {
    widths.push_back(n);
  }
  auto compute_row = [&](int n) {
    Row row("table1", std::to_string(n));
    auto fig2 = bg::make_fig2(n);
    c::GateNetlist ga = c::bit_blast(fig2.rtl);
    row.counts = {{"flipflops", ga.ff_count()}, {"gates", ga.gate_count()}};

    // HASH: the formal synthesis step itself.
    auto retime = [&] { return h::formal_retime(fig2.rtl, fig2.good_cut); };
    auto res = measure(row, "hash", retime);

    c::GateNetlist gb = c::bit_blast(res.retimed);
    v::VerifyOptions opts;
    opts.timeout_sec = timeout;
    v::CheckJob smv{&ga, &gb, v::Engine::Smv, opts};
    row.engines.push_back({"SIS", v::sis_fsm_check(ga, gb, opts)});
    row.engines.push_back({"SMV", v::run_check(smv)});
    return row;
  };
  std::vector<Row> table;
  if (jobs <= 1) {
    for (int n : widths) table.push_back(compute_row(n));
  } else {
    table = eda::kernel::parallel_map(widths, compute_row);
  }

  using eda::bench::add_claim;
  std::vector<Row> rows;
  add_claim(rows, "figure 2 at bitwidth n (Table I)", table);
  add_claim(rows, "forward vs backward formal retiming", backward_rows());
  add_claim(rows, "retime, minimise, compose", compound_rows());
  add_claim(rows, "HASH vs |f| on an 8-bit, 10-stage pipeline", cut_rows());
  add_claim(rows, "RT-level vs bit-level formal retiming", rtl_rows());
  add_claim(rows, "matcher of ref [8] vs HASH's compound step", match_rows());
  if (!json_path.empty() &&
      !eda::bench::write_json(json_path, "bench_table1", timeout, max_n, jobs,
                              rows)) {
    return 1;
  }
  return eda::bench::report_nonequiv(rows) == 0 ? 0 : 1;
}
