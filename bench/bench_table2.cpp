// Table II of the paper: the IWLS'91 sequential benchmark set (synthetic
// stand-ins, see DESIGN.md) — columns Eijk, Eijk+, SIS and HASH.
//
// Expected shape: the multiplier family blows the traversal engines up as
// the bitwidth grows (the paper reports none of the model checkers could
// handle the 32-bit fractional multiplier), Eijk+ beats Eijk where the
// retimed registers are functions of the originals, and HASH scales
// through the whole set.
//
// `--json FILE` also writes the rows as data (paper_table.h).  The exit
// status is 1 when a completed engine reports NONEQUIV: every row pairs a
// circuit with a correct retiming of it.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_gen/iwls.h"
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
  // Serial by default so the per-engine cells stay undistorted; `--jobs N`
  // opts into the fan-out (see bench_table1.cpp).
  unsigned jobs = 1;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--timeout" && a + 1 < argc) timeout = std::stod(argv[++a]);
    if (arg == "--json" && a + 1 < argc) json_path = argv[++a];
    if (arg == "--jobs" && a + 1 < argc) {
      jobs = static_cast<unsigned>(std::stoi(argv[++a]));
    }
  }
  // Caller participates in parallel_map: jobs-1 workers + caller = jobs
  // concurrent streams (same accounting as bench_parallel).
  if (jobs > 1) eda::kernel::set_global_thread_count(jobs - 1);

  auto t0 = std::chrono::steady_clock::now();
  eda::thy::retiming_thm();
  std::printf(
      "Table II — IWLS'91-style benchmarks (synthetic equivalents)\n");
  std::printf("universal retiming theorem proved once in %.3f s\n\n",
              seconds_since(t0));
  std::printf("%-8s %9s %7s | %7s %7s %7s %7s\n", "name", "flipflop",
              "gates", "Eijk", "Eijk+", "SIS", "HASH");

  // Rows are independent obligations and, within a row, the three model
  // checkers are independent of each other once the HASH step produced the
  // retimed netlist — fan everything out through the pool and print in
  // order.  The HASH steps replay kernel inference concurrently across
  // rows (sharded interner); each checker runs on its thread's own
  // BddManager or its own state table (confinement, see bdd/bdd.h).
  using eda::bench::TableRow;
  const auto benches = eda::bench_gen::iwls_benchmarks();
  auto compute_row = [&](const eda::bench_gen::BenchCircuit& bench) {
    TableRow row;
    row.name = bench.name;
    eda::circuit::GateNetlist ga = eda::circuit::bit_blast(bench.rtl);
    row.flipflops = ga.ff_count();
    row.gates = ga.gate_count();

    auto t1 = std::chrono::steady_clock::now();
    eda::hash::FormalRetimeResult res =
        eda::hash::formal_retime(bench.rtl, bench.cut);
    row.hash_seconds = seconds_since(t1);

    eda::circuit::GateNetlist gb = eda::circuit::bit_blast(res.retimed);
    eda::verify::VerifyOptions opts;
    opts.timeout_sec = timeout;

    std::vector<eda::verify::CheckJob> checks{
        {&ga, &gb, eda::verify::Engine::Eijk, opts},
        {&ga, &gb, eda::verify::Engine::EijkPlus, opts},
        {&ga, &gb, eda::verify::Engine::SisFsm, opts}};
    std::vector<eda::verify::VerifyResult> out;
    if (jobs <= 1) {
      for (const auto& job : checks) out.push_back(eda::verify::run_check(job));
    } else {
      out = eda::verify::check_parallel(checks);
    }
    row.engines = {{"Eijk", out[0]}, {"Eijk+", out[1]}, {"SIS", out[2]}};
    return row;
  };
  std::vector<TableRow> rows;
  if (jobs <= 1) {
    for (const auto& bench : benches) rows.push_back(compute_row(bench));
  } else {
    rows = eda::kernel::parallel_map(benches, compute_row);
  }
  for (const TableRow& row : rows) {
    std::printf("%-8s %9d %7d |", row.name.c_str(), row.flipflops, row.gates);
    for (const auto& [engine, v] : row.engines) {
      std::printf(" %s", eda::bench::cell(v.completed, v.seconds).c_str());
    }
    std::printf(" %s\n", eda::bench::cell(true, row.hash_seconds).c_str());
  }
  if (!json_path.empty() &&
      !eda::bench::write_table_json(json_path, "bench_table2", timeout, rows)) {
    std::fprintf(stderr, "bench_table2: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return eda::bench::report_nonequiv(rows) == 0 ? 0 : 1;
}
