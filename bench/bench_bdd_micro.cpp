// Microbenchmarks for the BDD substrate: ite throughput and the growth of
// adder/multiplier output functions — the raw ingredients of the
// model-checking blow-up documented in the paper's tables.

#include <benchmark/benchmark.h>

#include "bdd/bdd.h"
#include "bench_gen/fig2.h"
#include "circuit/bitblast.h"
#include "verify/symbolic.h"

namespace b = eda::bdd;

static void BM_IteChain(benchmark::State& state) {
  int nv = static_cast<int>(state.range(0));
  for (auto _ : state) {
    b::BddManager m(nv);
    b::BddId f = m.true_bdd();
    for (int k = 0; k < nv; ++k) f = m.lxor(f, m.var(k));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_IteChain)->Arg(16)->Arg(64)->Arg(256);

static void BM_BuildFig2Machine(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto fig2 = eda::bench_gen::make_fig2(n);
  eda::circuit::GateNetlist net = eda::circuit::bit_blast(fig2.rtl);
  const eda::verify::ProductLayout layout =
      eda::verify::product_layout({{&net, &net}});
  for (auto _ : state) {
    b::BddManager m(layout.total());
    auto machine = eda::verify::build_machine(m, net, layout,
                                              eda::verify::Side::A);
    benchmark::DoNotOptimize(machine.outputs.size());
  }
}
BENCHMARK(BM_BuildFig2Machine)->Arg(4)->Arg(8)->Arg(12);

static void BM_Exists(benchmark::State& state) {
  int nv = 24;
  b::BddManager m(nv);
  b::BddId f = m.true_bdd();
  for (int k = 0; k + 1 < nv; k += 2) {
    f = m.land(f, m.lor(m.var(k), m.var(k + 1)));
  }
  std::vector<int> evens;
  for (int k = 0; k < nv; k += 2) evens.push_back(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.exists(f, evens));
  }
}
BENCHMARK(BM_Exists);

BENCHMARK_MAIN();
