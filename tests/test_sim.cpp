// Bit-parallel simulation pre-filter (sim/bitsim.h) and the batched BDD
// kernel (verify/batch_bdd.h).
//
// The sim tests pin the dual-rail lane semantics against the scalar
// GateSimulator: wherever a lane claims a KNOWN output bit, that bit must
// equal the scalar simulation of the same stimulus — from the netlist's
// declared flop init AND from an adversarial one, because the X-pessimistic
// init only marks a bit known when it is independent of the initial state.
// That independence is exactly what makes sim refutation sound against
// every engine's init semantics.
//
// The batch tests pin the shared-pool traversal to the generator's known
// truth and to the explicit-state SIS engine on every engine and edit
// class, and the batched tail to batch-of-one runs: the service batches
// whatever survives the cheap tiers and re-runs retries alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/bitblast.h"
#include "sim/bitsim.h"
#include "testlib/gen.h"
#include "verify/batch_bdd.h"
#include "verify/cone.h"
#include "verify/parallel_verify.h"
#include "verify/sis_fsm.h"

namespace c = eda::circuit;
namespace sim = eda::sim;
namespace v = eda::verify;
namespace tl = eda::testlib;

namespace {

// Scalar replay of word stimulus: lane `lane` of each stimulus word, from
// flop init `init` (empty = the netlist's declared init).
std::vector<std::vector<bool>> scalar_run(
    const c::GateNetlist& net,
    const std::vector<std::vector<std::uint64_t>>& words, int lane,
    const std::vector<bool>& init) {
  c::GateSimulator gs(net);
  if (!init.empty()) gs.set_dff_state(init);
  std::vector<std::vector<bool>> outs;
  for (const std::vector<std::uint64_t>& w : words) {
    std::vector<bool> bits(w.size());
    for (std::size_t k = 0; k < w.size(); ++k) {
      bits[k] = ((w[k] >> lane) & 1) != 0;
    }
    outs.push_back(gs.step(bits));
  }
  return outs;
}

}  // namespace

// ~1000 seeded co-sim cases: 125 random machines x 8 audited lanes.
TEST(BitSim, LaneSemanticsMatchScalarCoSim) {
  const std::uint64_t base = tl::stimulus_seed();
  const int kNets = 125, kLanes = 8, kFrames = 4;
  for (int n = 0; n < kNets; ++n) {
    std::uint64_t s = base + static_cast<std::uint64_t>(n);
    std::mt19937_64 rng(s ^ 0xc0517);
    const int inputs = 3 + static_cast<int>(rng() % 5);
    const int gates = 30 + static_cast<int>(rng() % 60);
    const int ffs = static_cast<int>(rng() % 5);  // 0 = combinational
    c::GateNetlist net = tl::random_netlist(s, inputs, gates, ffs);

    sim::BitSimulator bs(net);
    std::vector<std::vector<std::uint64_t>> words(
        kFrames, std::vector<std::uint64_t>(net.inputs().size()));
    for (auto& frame : words) {
      for (std::uint64_t& w : frame) w = rng();
    }
    std::vector<sim::Packet> packets;
    for (const auto& frame : words) {
      bs.step(frame);
      packets.push_back(bs.output(0));
    }
    if (ffs == 0) {
      // No state, no X: every lane of a combinational net is known.
      for (const sim::Packet& p : packets) {
        EXPECT_EQ(p.known, ~0ull) << "net " << n;
      }
    }
    // Adversarial init: complement of the declared one.
    std::vector<bool> flip;
    for (c::LitId d : net.dffs()) flip.push_back(!net.node(d).init);
    for (int lane = 0; lane < kLanes; ++lane) {
      std::vector<std::vector<bool>> declared =
          scalar_run(net, words, lane, {});
      std::vector<std::vector<bool>> adversarial =
          scalar_run(net, words, lane, flip);
      for (int f = 0; f < kFrames; ++f) {
        if (((packets[static_cast<std::size_t>(f)].known >> lane) & 1) == 0) {
          continue;  // X lane: no claim to audit
        }
        bool val =
            ((packets[static_cast<std::size_t>(f)].val >> lane) & 1) != 0;
        EXPECT_EQ(val, declared[static_cast<std::size_t>(f)][0])
            << "net " << n << " lane " << lane << " frame " << f;
        EXPECT_EQ(val, adversarial[static_cast<std::size_t>(f)][0])
            << "net " << n << " lane " << lane << " frame " << f
            << " (known bit depends on flop init)";
      }
    }
  }
}

// A refutation is not a claim, it is a witness: the returned stimulus must
// replay to a real mismatch on the scalar simulator — again from both the
// declared and an adversarial flop init.
TEST(BitSim, CounterexampleReplaysToRealMismatch) {
  const std::uint64_t base = tl::stimulus_seed();
  int refuted = 0;
  for (int n = 0; n < 40; ++n) {
    std::uint64_t s = base + 1000 + static_cast<std::uint64_t>(n);
    c::GateNetlist a = tl::random_netlist_multi(s, 5, 80, 3, 4);
    c::GateNetlist b =
        tl::mutate_cone(a, static_cast<std::size_t>(n) % 4,
                        tl::ConeEdit::Different);
    sim::SimOptions opts;
    opts.seed = base;
    sim::RefuteResult r = sim::refute(a, b, opts);
    if (!r.refuted) continue;  // X-dominated output: legitimately unseen
    ++refuted;
    ASSERT_EQ(r.cex.frames.size(),
              static_cast<std::size_t>(r.cex.frame) + 1);
    std::vector<bool> flip_a, flip_b;
    for (c::LitId d : a.dffs()) flip_a.push_back(!a.node(d).init);
    for (c::LitId d : b.dffs()) flip_b.push_back(!b.node(d).init);
    for (int adversarial = 0; adversarial < 2; ++adversarial) {
      c::GateSimulator sa(a), sb(b);
      if (adversarial) {
        sa.set_dff_state(flip_a);
        sb.set_dff_state(flip_b);
      }
      std::vector<bool> oa, ob;
      for (const std::vector<bool>& frame : r.cex.frames) {
        oa = sa.step(frame);
        ob = sb.step(frame);
      }
      EXPECT_NE(oa[r.cex.output_index], ob[r.cex.output_index])
          << "seed " << s << (adversarial ? " adversarial" : " declared")
          << " init: counterexample does not replay";
    }
    EXPECT_EQ(r.cex.output,
              a.outputs()[r.cex.output_index].first);
  }
  // The corpus is random, but a pre-filter that refutes almost nothing is
  // broken; well over half of single-inverter edits are observable.
  EXPECT_GE(refuted, 20);
}

// Function-preserving edits must NEVER be refuted — neither the foldable
// double inverter nor the opaque absorption redundancy.  The opaque edit
// must additionally survive the whole engine-free fast path (identity,
// miter fold, sim), because it is the edit class the engines exist for.
TEST(BitSim, EquivalentEditsNotRefutedAndOpaqueReachesEngine) {
  const std::uint64_t base = tl::stimulus_seed();
  for (int n = 0; n < 20; ++n) {
    std::uint64_t s = base + 2000 + static_cast<std::uint64_t>(n);
    c::GateNetlist a = tl::random_netlist_multi(s, 5, 60, 3, 4);
    for (tl::ConeEdit e :
         {tl::ConeEdit::Equivalent, tl::ConeEdit::EquivalentOpaque}) {
      std::size_t idx = static_cast<std::size_t>(n) % 4;
      c::GateNetlist b = tl::mutate_cone(a, idx, e);
      sim::SimOptions opts;
      opts.seed = base + static_cast<std::uint64_t>(n);
      EXPECT_FALSE(sim::refute(a, b, opts).refuted) << "seed " << s;
      if (e != tl::ConeEdit::EquivalentOpaque) continue;
      std::vector<v::ConePair> pairs = v::pair_cones(a, b);
      v::ConeJob job;
      job.pair = &pairs[idx];
      job.sim.seed = opts.seed;
      std::uint64_t spent = 0;
      EXPECT_FALSE(v::check_cone_fast(job, &spent).has_value())
          << "seed " << s << ": opaque edit settled without an engine";
      EXPECT_GT(spent, 0u) << "pass-through must report stimulus spent";
    }
  }
}

// The shared-pool batch must give every job the verdict the generator
// knows, on every engine and both polarities — and the explicit-state SIS
// engine, which shares no code with the BDD traversal, must agree.
TEST(BatchBdd, VerdictsIdenticalToPerJobEngines) {
  const std::uint64_t base = tl::stimulus_seed();
  std::vector<c::GateNetlist> keep;  // stable addresses for CheckJob
  keep.reserve(64);
  std::vector<v::CheckJob> jobs;
  std::vector<bool> truth;
  for (int n = 0; n < 6; ++n) {
    std::uint64_t s = base + 3000 + static_cast<std::uint64_t>(n);
    c::GateNetlist a = tl::random_netlist(s, 4, 40, 2);
    tl::ConeEdit e = n % 3 == 0   ? tl::ConeEdit::Different
                     : n % 3 == 1 ? tl::ConeEdit::Equivalent
                                  : tl::ConeEdit::EquivalentOpaque;
    c::GateNetlist b = tl::mutate_cone(a, 0, e);
    keep.push_back(std::move(a));
    keep.push_back(std::move(b));
    for (v::Engine eng : {v::Engine::Eijk, v::Engine::EijkPlus,
                          v::Engine::Smv, v::Engine::SisFsm}) {
      v::CheckJob job;
      job.a = &keep[keep.size() - 2];
      job.b = &keep[keep.size() - 1];
      job.engine = eng;
      job.opts.timeout_sec = 30.0;
      jobs.push_back(job);
      truth.push_back(e != tl::ConeEdit::Different);
    }
  }
  std::vector<v::VerifyResult> batched = v::check_batch(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    v::VerifyResult sis = v::sis_fsm_check(*jobs[i].a, *jobs[i].b);
    ASSERT_TRUE(sis.completed) << "job " << i;
    EXPECT_EQ(sis.equivalent, truth[i]) << "job " << i;
    EXPECT_TRUE(batched[i].completed) << "job " << i;
    EXPECT_EQ(batched[i].equivalent, truth[i])
        << "job " << i << ": batched " << v::engine_name(jobs[i].engine)
        << " disagrees with the generator";
  }
}

// End-to-end cone path: the cheap tiers, then ONE shared-pool batch over
// the survivors, must match each survivor run alone as a batch of one, on
// a multi-cone design with one edit of each class.
TEST(BatchBdd, ConePipelineMatchesPerConeVerdicts) {
  const std::uint64_t base = tl::stimulus_seed();
  c::GateNetlist a = tl::random_netlist_multi(base + 4000, 5, 120, 3, 6);
  c::GateNetlist b = tl::mutate_cone(a, 1, tl::ConeEdit::Equivalent);
  b = tl::mutate_cone(b, 3, tl::ConeEdit::EquivalentOpaque);
  b = tl::mutate_cone(b, 5, tl::ConeEdit::Different);
  std::vector<v::ConePair> pairs = v::pair_cones(a, b);
  std::vector<std::optional<v::VerifyResult>> fast(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    v::ConeJob job;
    job.pair = &pairs[i];
    job.sim.seed = base;
    fast[i] = v::check_cone_fast(job);
  }
  std::vector<std::optional<v::VerifyResult>> settled;
  for (v::Engine eng : {v::Engine::Eijk, v::Engine::EijkPlus, v::Engine::Smv}) {
    settled = fast;
    std::vector<std::size_t> rest;
    std::vector<v::CheckJob> tail;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (fast[i]) continue;
      rest.push_back(i);
      tail.push_back({&pairs[i].a, &pairs[i].b, eng, {}});
    }
    ASSERT_FALSE(tail.empty()) << "the opaque cone must reach the engine";
    std::vector<v::VerifyResult> batched = v::check_batch(tail);
    ASSERT_EQ(batched.size(), tail.size());
    for (std::size_t k = 0; k < tail.size(); ++k) {
      v::VerifyResult solo = v::check_batch({tail[k]}).front();
      ASSERT_TRUE(solo.completed) << "cone " << rest[k];
      EXPECT_TRUE(batched[k].completed) << "cone " << rest[k];
      EXPECT_EQ(batched[k].equivalent, solo.equivalent) << "cone " << rest[k];
      EXPECT_EQ(batched[k].iterations, solo.iterations) << "cone " << rest[k];
      settled[rest[k]] = batched[k];
    }
  }
  // The one Different cone is NONEQUIV however it was settled; under the
  // default seed the sim tier catches it (pinned so the tier is known to
  // fire in CI), and a sim refutation must name the cone's output.
  ASSERT_TRUE(settled[5].has_value());
  EXPECT_FALSE(settled[5]->equivalent);
  if (base == 0x5eedf17eULL) {
    EXPECT_TRUE(settled[5]->sim_refuted);
  }
  if (settled[5]->sim_refuted) {
    EXPECT_EQ(settled[5]->counterexample, a.outputs()[5].first);
  }
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{4}}) {
    ASSERT_TRUE(settled[i].has_value()) << "cone " << i;
    EXPECT_TRUE(settled[i]->completed) << "cone " << i;
    EXPECT_TRUE(settled[i]->equivalent) << "cone " << i;
  }
}
