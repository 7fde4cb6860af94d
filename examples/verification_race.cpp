// The paper's experiment in miniature: retime one circuit formally, then
// race every post-synthesis verification technique against the time the
// formal step took.  On small circuits the verifiers win (HASH has a
// higher constant); crank up --bits and the tables turn.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_gen/fig2.h"
#include "circuit/bitblast.h"
#include "hash/retime_step.h"
#include "theories/retiming_thm.h"
#include "verify/parallel_verify.h"

int main(int argc, char** argv) {
  using namespace eda;
  int bits = 6;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--bits" && a + 1 < argc) {
      bits = std::stoi(argv[++a]);
    }
  }
  thy::retiming_thm();
  bench_gen::Fig2 fig2 = bench_gen::make_fig2(bits);

  auto t0 = std::chrono::steady_clock::now();
  hash::FormalRetimeResult res = hash::formal_retime(fig2.rtl, fig2.good_cut);
  double hash_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  circuit::GateNetlist ga = circuit::bit_blast(fig2.rtl);
  circuit::GateNetlist gb = circuit::bit_blast(res.retimed);
  std::printf("fig. 2 at %d bits: %d flip-flops, %d gates\n\n", bits,
              ga.ff_count(), ga.gate_count());
  std::printf("%-28s %10s %10s\n", "technique", "time (s)", "verdict");
  std::printf("%-28s %10.4f %10s\n", "HASH (formal synthesis)", hash_sec,
              "theorem");

  verify::VerifyOptions opts;
  opts.timeout_sec = 10.0;
  auto report = [&](const char* name, const verify::VerifyResult& r) {
    std::printf("%-28s %10s %10s\n", name,
                r.completed ? std::to_string(r.seconds).substr(0, 6).c_str()
                            : "-",
                r.completed ? (r.equivalent ? "equal" : "DIFFER") : "-");
  };
  auto check = [&](verify::Engine engine) {
    return verify::run_check({&ga, &gb, engine, opts});
  };
  report("SIS (explicit FSM compare)", check(verify::Engine::SisFsm));
  report("SMV (monolithic MC)", check(verify::Engine::Smv));
  report("Eijk (partitioned MC)", check(verify::Engine::Eijk));
  report("Eijk+ (functional deps)", check(verify::Engine::EijkPlus));
  return 0;
}
