// Table II of the paper: the IWLS'91 sequential benchmark set (synthetic
// stand-ins, see DESIGN.md) — columns Eijk, Eijk+, SIS and HASH.
//
// Expected shape: the multiplier family blows the traversal engines up as
// the bitwidth grows (the paper reports none of the model checkers could
// handle the 32-bit fractional multiplier), Eijk+ beats Eijk where the
// retimed registers are functions of the originals, and HASH scales
// through the whole set.
//
// After the table comes the conventional heuristic layer's claim, as rows
// of the same shape: min-period against min-area retiming.
//
// `--json FILE` also writes every row as data (paper_table.h), which
// tools/check_tables.py gates.  The exit status is 1 when a completed
// engine reports NONEQUIV: every row pairs a circuit with a correct
// retiming of it.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_gen/iwls.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "kernel/parallel.h"
#include "paper_table.h"
#include "retime/leiserson_saxe.h"
#include "retime/min_area.h"
#include "theories/retiming_thm.h"
#include "verify/parallel_verify.h"
#include "verify/sis_fsm.h"

namespace {

namespace h = eda::hash;
using eda::bench::Clock;
using eda::bench::Row;
using eda::bench::seconds_since;

eda::retime::RetimeGraph random_graph(int n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  eda::retime::RetimeGraph g;
  g.delay.assign(static_cast<std::size_t>(n + 1), 0);
  g.vertex_signal.assign(static_cast<std::size_t>(n + 1), -1);
  for (int v = 1; v <= n; ++v) {
    g.delay[static_cast<std::size_t>(v)] = 1 + static_cast<int>(rng() % 4);
  }
  for (int v = 0; v <= n; ++v) {
    g.edges.push_back(
        {v, (v + 1) % (n + 1), 1 + static_cast<int>(rng() % 2)});
  }
  for (int k = 0; k < n; ++k) {
    int u = static_cast<int>(rng() % (n + 1));
    int v = static_cast<int>(rng() % (n + 1));
    if (u != v) g.edges.push_back({u, v, static_cast<int>(rng() % 3)});
  }
  return g;
}

// The cut fed to the formal step comes from an external heuristic (the
// paper's ref [11], Leiserson & Saxe): its choice decides quality, never
// correctness.  Min-period labels scatter registers; min-area reclaims
// them at the same period.  Each row averages five seeded graphs of |V|
// vertices (a graph min-period rejects is skipped), so its counts repeat
// on any host.
std::vector<Row> min_area_rows() {
  using namespace eda::retime;
  std::vector<Row> rows;
  for (int n : {6, 10, 16, 24, 40, 64}) {
    unsigned long long edges = 0, period0 = 0, period = 0, trials = 0;
    unsigned long long regs_mp = 0, regs_ma = 0;
    double sec = 0;
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      RetimeGraph g =
          random_graph(n, seed * 977 + static_cast<std::uint32_t>(n));
      RetimingResult mp;
      try {
        mp = min_period_retiming(g);
      } catch (const eda::circuit::RtlError&) {
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      MinAreaResult ma = min_area_retiming(g, mp.period);
      sec += seconds_since(t0);
      regs_mp += total_registers(apply_retiming(g, mp.r));
      regs_ma += ma.register_count;
      period0 += clock_period(g);
      period += mp.period;
      edges += g.edges.size();
      ++trials;
    }
    if (trials == 0) continue;
    Row row("min_area", std::to_string(n));
    row.seconds.push_back({"min_area", sec / static_cast<double>(trials)});
    row.counts.push_back({"edges", edges / trials});
    row.counts.push_back({"period0", period0 / trials});
    row.counts.push_back({"period", period / trials});
    row.counts.push_back({"registers_min_period", regs_mp / trials});
    row.counts.push_back({"registers_min_area", regs_ma / trials});
    row.counts.push_back({"trials", trials});
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  double timeout = 5.0;
  // Serial by default so the per-engine cells and the inference counts
  // stay undistorted; `--jobs N` opts into the fan-out (see
  // bench_table1.cpp).
  unsigned jobs = 1;
  std::string json_path;
  eda::bench::Args("bench_table2")
      .number("--timeout", "SEC", timeout, 0.001, 86400.0)
      .text("--json", "FILE", json_path)
      .number("--jobs", "N", jobs, 1u, 1024u)
      .parse(argc, argv);
  // Caller participates in parallel_map: jobs-1 workers + caller = jobs
  // concurrent streams (same accounting as bench_parallel).
  if (jobs > 1) eda::kernel::set_global_thread_count(jobs - 1);

  const Clock::time_point t0 = Clock::now();
  eda::thy::retiming_thm();
  std::printf("universal retiming theorem proved once in %.3f s\n",
              seconds_since(t0));

  // Rows are independent obligations and, within a row, the three model
  // checkers are independent of each other once the HASH step produced the
  // retimed netlist — `--jobs` fans everything out through the pool and
  // prints in order.  The HASH steps replay kernel inference concurrently
  // across rows (sharded interner); each checker runs on its thread's own
  // BddManager or its own state table (confinement, see bdd/bdd.h).
  const auto benches = eda::bench_gen::iwls_benchmarks();
  auto compute_row = [&](const eda::bench_gen::BenchCircuit& bench) {
    Row row("table2", bench.name);
    eda::circuit::GateNetlist ga = eda::circuit::bit_blast(bench.rtl);
    row.counts = {{"flipflops", ga.ff_count()}, {"gates", ga.gate_count()}};

    auto retime = [&] { return h::formal_retime(bench.rtl, bench.cut); };
    auto res = eda::bench::measure(row, "hash", retime);

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
  std::vector<Row> table;
  if (jobs <= 1) {
    for (const auto& bench : benches) table.push_back(compute_row(bench));
  } else {
    table = eda::kernel::parallel_map(benches, compute_row);
  }

  using eda::bench::add_claim;
  std::vector<Row> rows;
  add_claim(rows, "IWLS'91-style benchmarks (Table II)", table);
  add_claim(rows, "min-period vs min-area retiming, ref [11]", min_area_rows());
  if (!json_path.empty() &&
      !eda::bench::write_json(json_path, "bench_table2", timeout, -1, jobs,
                              rows)) {
    return 1;
  }
  return eda::bench::report_nonequiv(rows) == 0 ? 0 : 1;
}
