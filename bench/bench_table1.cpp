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
// `--json FILE` also writes the rows as data (paper_table.h).  The exit
// status is 1 when a completed engine reports NONEQUIV: every row pairs a
// circuit with a correct retiming of it.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_gen/fig2.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "kernel/parallel.h"
#include "paper_table.h"
#include "theories/retiming_thm.h"
#include "verify/parallel_verify.h"
#include "verify/sis_fsm.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  double timeout = 5.0;
  int max_n = 40;
  // Default to serial: the per-engine wall-clock cells (and their timeout
  // verdicts) are the table's output, and concurrent rows competing for
  // cores would distort them.  `--jobs N` opts into the fan-out when
  // throughput matters more than per-cell fidelity.
  unsigned jobs = 1;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--timeout" && a + 1 < argc) timeout = std::stod(argv[++a]);
    if (arg == "--max-n" && a + 1 < argc) max_n = std::stoi(argv[++a]);
    if (arg == "--json" && a + 1 < argc) json_path = argv[++a];
    if (arg == "--jobs" && a + 1 < argc) {
      jobs = static_cast<unsigned>(std::stoi(argv[++a]));
    }
  }
  // parallel_map's caller participates, so a pool of jobs-1 workers gives
  // exactly `jobs` concurrent streams (same accounting as bench_parallel).
  if (jobs > 1) eda::kernel::set_global_thread_count(jobs - 1);

  // Prove the universal theorem once up front (the paper's "once and for
  // all"); its cost is excluded from the per-circuit HASH column exactly
  // as the paper excludes it.
  auto t0 = std::chrono::steady_clock::now();
  eda::thy::retiming_thm();
  double thm_sec = seconds_since(t0);

  std::printf("Table I — example from figure 2 (scalable bitwidth n)\n");
  std::printf("universal retiming theorem proved once in %.3f s\n\n", thm_sec);
  std::printf("%4s %9s %7s | %7s %7s %7s\n", "n", "flipflop", "gates",
              "SIS", "SMV", "HASH");

  // Each row is an independent proof obligation; fan the whole table out
  // across the pool (HASH synthesis replays kernel inference concurrently
  // — the sharded interner is what makes this safe) and print in order at
  // the end.  Wall-clock timeouts stay meaningful per engine because each
  // engine run measures its own elapsed time.
  using eda::bench::TableRow;
  std::vector<int> widths;
  for (int n = 1; n <= max_n; n = n < 8 ? n + 1 : n + (n < 16 ? 2 : 8)) {
    widths.push_back(n);
  }
  auto compute_row = [&](int n) {
    TableRow row;
    row.name = std::to_string(n);
    auto fig2 = eda::bench_gen::make_fig2(n);
    eda::circuit::GateNetlist ga = eda::circuit::bit_blast(fig2.rtl);
    row.flipflops = ga.ff_count();
    row.gates = ga.gate_count();

    // HASH: the formal synthesis step itself.
    auto t1 = std::chrono::steady_clock::now();
    eda::hash::FormalRetimeResult res =
        eda::hash::formal_retime(fig2.rtl, fig2.good_cut);
    row.hash_seconds = seconds_since(t1);

    eda::circuit::GateNetlist gb = eda::circuit::bit_blast(res.retimed);
    eda::verify::VerifyOptions opts;
    opts.timeout_sec = timeout;
    eda::verify::CheckJob smv{&ga, &gb, eda::verify::Engine::Smv, opts};
    row.engines = {{"SIS", eda::verify::sis_fsm_check(ga, gb, opts)},
                   {"SMV", eda::verify::run_check(smv)}};
    return row;
  };
  std::vector<TableRow> rows;
  if (jobs <= 1) {
    for (int n : widths) rows.push_back(compute_row(n));
  } else {
    rows = eda::kernel::parallel_map(widths, compute_row);
  }
  for (const TableRow& row : rows) {
    std::printf("%4s %9d %7d |", row.name.c_str(), row.flipflops, row.gates);
    for (const auto& [engine, v] : row.engines) {
      std::printf(" %s", eda::bench::cell(v.completed, v.seconds).c_str());
    }
    std::printf(" %s\n", eda::bench::cell(true, row.hash_seconds).c_str());
  }
  if (!json_path.empty() &&
      !eda::bench::write_table_json(json_path, "bench_table1", timeout, rows)) {
    std::fprintf(stderr, "bench_table1: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return eda::bench::report_nonequiv(rows) == 0 ? 0 : 1;
}
