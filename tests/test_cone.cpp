// Tests for the cone-partitioned verification layer: extraction
// co-simulation, the mutation helpers' known semantics, the hash-consing
// miter builder's short-circuits, the engine-free tiers, and the
// verdict-stitching rules.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/bitblast.h"
#include "io/blif.h"
#include "testlib/gen.h"
#include "verify/cone.h"

namespace c = eda::circuit;
namespace io = eda::io;
namespace v = eda::verify;
using c::GateNetlist;
using c::GateOp;
using c::LitId;
using eda::testlib::ConeEdit;

namespace {

/// Drive both netlists with the same random stimulus and compare ONE
/// output of each: `idx_a` of a against `idx_b` of b.  This is how a
/// single-output cone is checked against its parent (same PI interface by
/// construction; the flop populations differ, each simulator owns its
/// own).
bool outputs_agree(const GateNetlist& a, std::size_t idx_a,
                   const GateNetlist& b, std::size_t idx_b, int cycles,
                   std::uint32_t seed) {
  c::GateSimulator sa(a), sb(b);
  sa.reset();
  sb.reset();
  std::uint32_t x = seed;
  for (int k = 0; k < cycles; ++k) {
    std::vector<bool> in;
    for (std::size_t j = 0; j < a.inputs().size(); ++j) {
      x = x * 1664525u + 1013904223u;
      in.push_back((x >> 16) & 1);
    }
    if (sa.step(in)[idx_a] != sb.step(in)[idx_b]) return false;
  }
  return true;
}

std::optional<v::VerifyResult> fast_tiers(const v::ConePair& pair) {
  v::ConeJob job;
  job.pair = &pair;
  return v::check_cone_fast(job);
}

}  // namespace

TEST(ExtractCones, ConesComputeTheParentOutputs) {
  GateNetlist net = eda::testlib::random_netlist_multi(11, 5, 60, 3, 4);
  std::vector<io::Cone> cones = io::extract_cones(net);
  ASSERT_EQ(cones.size(), 4u);
  for (std::size_t i = 0; i < cones.size(); ++i) {
    EXPECT_EQ(cones[i].output, net.outputs()[i].first);
    EXPECT_EQ(cones[i].net.outputs().size(), 1u);
    // All parent PIs, in parent order (positional engine interface).
    ASSERT_EQ(cones[i].net.inputs().size(), net.inputs().size());
    EXPECT_TRUE(outputs_agree(cones[i].net, 0, net, i, 300,
                              static_cast<std::uint32_t>(17 + i)));
    EXPECT_EQ(cones[i].hash, io::structural_hash(cones[i].net));
  }
}

TEST(ExtractCones, ConeIsNoLargerThanParent) {
  // Sanity on the "transitive fanin only" claim: a cone never carries
  // more flops than its parent, and a cone of an unconnected output
  // carries none of the parent's gates.
  GateNetlist net;
  LitId a = net.add_input("a");
  LitId d = net.add_dff("d", true);
  net.set_dff_next(d, net.add_gate(GateOp::Xor, d, a));
  net.add_output("flop", d);
  net.add_output("wire", a);
  std::vector<io::Cone> cones = io::extract_cones(net);
  ASSERT_EQ(cones.size(), 2u);
  EXPECT_EQ(cones[0].net.ff_count(), 1);
  EXPECT_EQ(cones[1].net.ff_count(), 0);
  EXPECT_EQ(cones[1].net.gate_count(), 0);
}

TEST(MutateCone, EquivalentEditsPreserveFunction) {
  GateNetlist net = eda::testlib::random_netlist_multi(23, 5, 60, 3, 4);
  for (ConeEdit edit : {ConeEdit::Equivalent, ConeEdit::EquivalentOpaque}) {
    GateNetlist mut = eda::testlib::mutate_cone(net, 2, edit);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(outputs_agree(net, i, mut, i, 300, 77));
    }
    // The edited cone's digest moves, the other three stay put.
    std::vector<std::uint64_t> h0 = io::cone_hashes(net);
    std::vector<std::uint64_t> h1 = io::cone_hashes(mut);
    for (std::size_t i = 0; i < 4; ++i) {
      if (i == 2) {
        EXPECT_NE(h0[i], h1[i]);
      } else {
        EXPECT_EQ(h0[i], h1[i]);
      }
    }
  }
}

TEST(MutateCone, DifferentEditComplementsEveryCycle) {
  GateNetlist net = eda::testlib::random_netlist_multi(29, 5, 60, 3, 4);
  GateNetlist mut = eda::testlib::mutate_cone(net, 1, ConeEdit::Different);
  c::GateSimulator sa(net), sb(mut);
  sa.reset();
  sb.reset();
  std::uint32_t x = 5;
  for (int k = 0; k < 200; ++k) {
    std::vector<bool> in;
    for (std::size_t j = 0; j < net.inputs().size(); ++j) {
      x = x * 1664525u + 1013904223u;
      in.push_back((x >> 16) & 1);
    }
    std::vector<bool> oa = sa.step(in), ob = sb.step(in);
    EXPECT_EQ(oa[1], !ob[1]);  // complemented...
    EXPECT_EQ(oa[0], ob[0]);   // ...and the others untouched
    EXPECT_EQ(oa[2], ob[2]);
    EXPECT_EQ(oa[3], ob[3]);
  }
}

TEST(MutateCone, RejectsBadIndexAndMissingInput) {
  GateNetlist net = eda::testlib::random_netlist(3, 2, 8, 1);
  EXPECT_THROW(eda::testlib::mutate_cone(net, 5, ConeEdit::Equivalent),
               std::out_of_range);
  GateNetlist no_inputs;
  LitId d = no_inputs.add_dff("d", false);
  no_inputs.set_dff_next(d, d);
  no_inputs.add_output("y", d);
  EXPECT_THROW(
      eda::testlib::mutate_cone(no_inputs, 0, ConeEdit::EquivalentOpaque),
      std::out_of_range);
}

TEST(PairCones, PairsPositionallyAndRejectsMismatch) {
  GateNetlist a = eda::testlib::random_netlist_multi(31, 4, 30, 2, 3);
  GateNetlist b = eda::testlib::mutate_cone(a, 0, ConeEdit::Equivalent);
  std::vector<v::ConePair> pairs = v::pair_cones(a, b);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_NE(pairs[0].hash_a, pairs[0].hash_b);
  EXPECT_EQ(pairs[1].hash_a, pairs[1].hash_b);
  EXPECT_EQ(pairs[2].hash_a, pairs[2].hash_b);
  EXPECT_EQ(pairs[0].output, "out0");

  GateNetlist fewer = eda::testlib::random_netlist_multi(31, 4, 30, 2, 2);
  EXPECT_THROW(v::pair_cones(a, fewer), v::ConeError);
}

TEST(Miter, FoldsIdenticalAndDoubleNegatedSidesToConstZero) {
  GateNetlist a = eda::testlib::random_netlist(41, 4, 40, 0);  // comb only
  GateNetlist dn = eda::testlib::mutate_cone(a, 0, ConeEdit::Equivalent);
  EXPECT_TRUE(v::miter_output_is_const(v::build_miter(a, a), false));
  // The double inverter folds away inside the shared hash-consed builder.
  EXPECT_TRUE(v::miter_output_is_const(v::build_miter(a, dn), false));
  // A complemented side does NOT fold to zero.
  GateNetlist neg = eda::testlib::mutate_cone(a, 0, ConeEdit::Different);
  EXPECT_FALSE(v::miter_output_is_const(v::build_miter(a, neg), false));
}

TEST(Miter, SharesLogicAcrossSides) {
  // B = A plus one opaque-redundant gate pair: the miter must reuse ALL of
  // A's gates for B's side rather than duplicating them.
  GateNetlist a = eda::testlib::random_netlist(43, 4, 50, 0);
  GateNetlist b = eda::testlib::mutate_cone(a, 0, ConeEdit::EquivalentOpaque);
  GateNetlist m = v::build_miter(a, b);
  // Far less than two full copies: shared gates + the redundancy + the
  // XOR/OR tail.
  EXPECT_LT(m.gate_count(), a.gate_count() + 10);
  EXPECT_THROW(
      v::build_miter(a, eda::testlib::random_netlist(43, 3, 50, 0)),
      v::ConeError);
}

TEST(CheckCone, ShortCircuitsAndEngineVerdicts) {
  GateNetlist a = eda::testlib::random_netlist_multi(47, 5, 80, 3, 2);
  GateNetlist eq = eda::testlib::mutate_cone(a, 0, ConeEdit::EquivalentOpaque);
  GateNetlist ne = eda::testlib::mutate_cone(a, 0, ConeEdit::Different);
  v::VerifyOptions opts;
  opts.timeout_sec = 30.0;

  // Cone 1 is untouched (identity short-circuit), cone 0 needs the engine
  // (the absorption redundancy defeats the miter folding).
  std::vector<v::ConePair> eq_pairs = v::pair_cones(a, eq);
  ASSERT_EQ(eq_pairs.size(), 2u);
  std::optional<v::VerifyResult> same = fast_tiers(eq_pairs[1]);
  ASSERT_TRUE(same.has_value());
  EXPECT_TRUE(same->completed);
  EXPECT_TRUE(same->equivalent);
  EXPECT_FALSE(fast_tiers(eq_pairs[0]).has_value());
  v::CheckJob engine_job{&eq_pairs[0].a, &eq_pairs[0].b, v::Engine::Eijk, opts};
  v::VerifyResult proved = v::run_check(engine_job);
  EXPECT_TRUE(proved.completed);
  EXPECT_TRUE(proved.equivalent);

  std::vector<v::ConePair> ne_pairs = v::pair_cones(a, ne);
  std::optional<v::VerifyResult> bad = fast_tiers(ne_pairs[0]);
  if (!bad) {
    bad = v::run_check({&ne_pairs[0].a, &ne_pairs[0].b, v::Engine::Eijk, opts});
  }
  EXPECT_TRUE(bad->completed);
  EXPECT_FALSE(bad->equivalent);
}

TEST(Stitch, AllEquivalentConesMakeTheDesignEquivalent) {
  v::ConeVerdict hit{"out0", {}, true};
  hit.result.completed = true;
  hit.result.equivalent = true;
  v::ConeVerdict proved{"out1", {}, false};
  proved.result.completed = true;
  proved.result.equivalent = true;
  v::StitchedVerdict s = v::stitch_verdicts({hit, proved});
  EXPECT_TRUE(s.completed);
  EXPECT_TRUE(s.equivalent);
  EXPECT_TRUE(s.counterexample.empty());
  EXPECT_EQ(s.cones, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.reproved, 1u);
}

TEST(Stitch, NonequivDominatesEvenOverIncompleteCones) {
  v::ConeVerdict incomplete{"out0", {}, false};  // engine blew its budget
  v::ConeVerdict neq{"out1", {}, false};
  neq.result.completed = true;
  neq.result.equivalent = false;
  v::StitchedVerdict s = v::stitch_verdicts({incomplete, neq});
  EXPECT_TRUE(s.completed);  // one differing output settles the design
  EXPECT_FALSE(s.equivalent);
  EXPECT_EQ(s.counterexample, "out1");

  // An unlabelled obligation (a whole netlist) is NONEQUIV all the same,
  // named by its result when the result knows the output.
  v::ConeVerdict eq{"out0", {}, false};
  eq.result.completed = true;
  eq.result.equivalent = true;
  v::ConeVerdict unlabelled{"", neq.result, false};
  s = v::stitch_verdicts({eq, unlabelled});
  EXPECT_TRUE(s.completed);
  EXPECT_FALSE(s.equivalent);
  EXPECT_TRUE(s.counterexample.empty());
  unlabelled.result.counterexample = "y3";
  EXPECT_EQ(v::stitch_verdicts({eq, unlabelled}).counterexample, "y3");
  // A label wins: a cached cone verdict may carry another design's name.
  neq.result.counterexample = "elsewhere";
  EXPECT_EQ(v::stitch_verdicts({eq, neq}).counterexample, "out1");
}

TEST(Stitch, IncompleteConeLeavesTheDesignIncomplete) {
  v::ConeVerdict ok{"out0", {}, true};
  ok.result.completed = true;
  ok.result.equivalent = true;
  v::ConeVerdict incomplete{"out1", {}, false};
  v::StitchedVerdict s = v::stitch_verdicts({ok, incomplete});
  EXPECT_FALSE(s.completed);
  EXPECT_FALSE(s.equivalent);
  EXPECT_TRUE(s.counterexample.empty());
}
