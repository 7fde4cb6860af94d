#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "io/blif.h"
#include "testlib/gen.h"

namespace perfbench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::HashRetime:
      return "hash_retime";
    case Workload::PosthocCheck:
      return "posthoc_check";
    case Workload::ConeCold:
      return "cone_cold";
    case Workload::EditReplay:
      return "edit_replay";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::HashRetime, Workload::PosthocCheck,
                     Workload::ConeCold, Workload::EditReplay}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

namespace {

/// The seed of a workload's generator: distinct workloads draw unrelated
/// streams from one --seed (splitmix64 finaliser).
std::uint64_t mix_seed(std::uint64_t seed, Workload w) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    (static_cast<std::uint64_t>(w) + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Cone designs shared by cone_cold and edit_replay: 16 outputs over 8
/// inputs, 30 gates per cone and 4 flip-flops in all (more flip-flops
/// made the engine tail, and with it the run-to-run spread, heavy-tailed).
struct ConeShape {
  int cones = 16;
  int inputs = 8;
  int gates_per_cone = 30;
  int ffs = 4;
};

using eda::testlib::ConeEdit;

/// The distinct HASH obligations of hash_retime: Table I's fig2 widths,
/// Table II's stand-ins (by name; their family twins are left out, since a
/// twin is the same goal term and would hit the theorem cache), and the
/// fig2deep, mult, ctrl and pipe families up to width 62.
std::vector<std::pair<std::string, std::string>> hash_pool() {
  static const std::vector<std::pair<const char*, const char*>> kTableII = {
      {"iwls:s344", "mult:4"},     {"iwls:mult8", "mult:8"},
      {"iwls:mult16", "mult:16"},  {"iwls:mult32", "mult:32"},
      {"iwls:s382", "ctrl:3:4"},   {"iwls:s526", "ctrl:4:5"},
      {"iwls:s820", "ctrl:5:6"},   {"iwls:s641", "pipe:8:3"},
      {"iwls:s713", "pipe:8:4"},   {"iwls:s1238", "pipe:16:5"}};
  std::set<std::string> twins;
  std::vector<std::pair<std::string, std::string>> pool;
  for (const auto& [name, twin] : kTableII) {
    pool.emplace_back(name, "iwls");
    twins.insert(twin);
  }
  auto add = [&](const std::string& spec, const char* family) {
    if (twins.count(spec) == 0) pool.emplace_back(spec, family);
  };
  const std::string s = ":";
  for (int n = 1; n <= 62; ++n) {
    add("fig2:" + std::to_string(n), "fig2");
    add("mult:" + std::to_string(n), "mult");
    // One incrementer stage is fig2 itself (the same goal term).
    for (int st = 2; st <= 24; ++st) {
      add("fig2deep:" + std::to_string(n) + s + std::to_string(st),
          "fig2deep");
    }
  }
  for (int a = 1; a <= 20; ++a) {
    for (int b = 1; b <= 20; ++b) {
      add("ctrl:" + std::to_string(a) + s + std::to_string(b), "ctrl");
    }
  }
  for (int a = 1; a <= 16; ++a) {
    for (int d = 1; d <= 3; ++d) {
      add("pipe:" + std::to_string(a) + s + std::to_string(d), "pipe");
    }
  }
  return pool;
}

/// posthoc_check's cells: (circuit, engine) pairs whose engine took
/// 0.5–50 ms on one thread (x86-64, 4 vCPU, Release build), well inside
/// the 10 s budget even under 4-way contention.  Cells near the budget
/// retry with escalated limits and would measure the retry policy instead.
const std::vector<std::pair<const char*, const char*>>& posthoc_cells() {
  static const std::vector<std::pair<const char*, const char*>> cells = {
      {"fig2:3", "eijk"},         {"fig2:3", "eijk+"},
      {"fig2:4", "eijk"},         {"fig2:4", "eijk+"},
      {"fig2:4", "smv"},          {"fig2:4", "sis"},
      {"fig2:5", "eijk"},         {"fig2:5", "eijk+"},
      {"fig2:5", "smv"},          {"fig2:5", "sis"},
      {"fig2:6", "smv"},          {"fig2deep:3:3", "eijk"},
      {"fig2deep:3:3", "eijk+"},  {"fig2deep:3:5", "eijk"},
      {"fig2deep:3:5", "eijk+"},  {"fig2deep:4:2", "eijk"},
      {"fig2deep:4:2", "eijk+"},  {"fig2deep:4:2", "smv"},
      {"fig2deep:4:2", "sis"},    {"fig2deep:4:3", "eijk"},
      {"fig2deep:4:3", "eijk+"},  {"fig2deep:4:3", "smv"},
      {"fig2deep:4:3", "sis"},    {"fig2deep:4:4", "eijk"},
      {"fig2deep:4:4", "eijk+"},  {"fig2deep:4:4", "smv"},
      {"fig2deep:4:4", "sis"},    {"fig2deep:4:5", "eijk"},
      {"fig2deep:4:5", "eijk+"},  {"fig2deep:4:5", "smv"},
      {"fig2deep:4:5", "sis"},    {"fig2deep:5:2", "eijk"},
      {"fig2deep:5:2", "eijk+"},  {"fig2deep:5:2", "smv"},
      {"fig2deep:5:2", "sis"},    {"fig2deep:5:3", "eijk"},
      {"fig2deep:5:3", "eijk+"},  {"fig2deep:5:3", "smv"},
      {"fig2deep:5:4", "eijk"},   {"fig2deep:5:4", "eijk+"},
      {"fig2deep:5:4", "smv"},    {"fig2deep:5:4", "sis"},
      {"fig2deep:5:5", "eijk"},   {"fig2deep:5:5", "eijk+"},
      {"fig2deep:5:5", "smv"},    {"fig2deep:6:2", "smv"},
      {"fig2deep:6:3", "smv"},    {"fig2deep:6:4", "eijk"},
      {"fig2deep:6:4", "eijk+"},  {"fig2deep:6:4", "smv"},
      {"fig2deep:6:5", "smv"},    {"mult:3", "eijk"},
      {"mult:3", "eijk+"},        {"mult:3", "smv"},
      {"mult:4", "eijk"},         {"mult:4", "eijk+"},
      {"mult:4", "smv"},          {"mult:5", "eijk"},
      {"mult:5", "sis"},          {"mult:6", "sis"},
      {"ctrl:1:5", "eijk"},       {"ctrl:1:5", "eijk+"},
      {"ctrl:1:5", "smv"},        {"ctrl:1:6", "eijk"},
      {"ctrl:1:6", "eijk+"},      {"ctrl:1:6", "smv"},
      {"ctrl:2:3", "eijk"},       {"ctrl:2:3", "eijk+"},
      {"ctrl:2:3", "smv"},        {"ctrl:2:5", "eijk"},
      {"ctrl:2:5", "eijk+"},      {"ctrl:2:5", "smv"},
      {"ctrl:2:5", "sis"},        {"ctrl:3:2", "eijk"},
      {"ctrl:3:2", "eijk+"},      {"ctrl:3:2", "smv"},
      {"ctrl:3:4", "eijk"},       {"ctrl:3:4", "smv"},
      {"ctrl:3:4", "sis"},        {"ctrl:4:2", "eijk"},
      {"ctrl:4:2", "smv"},        {"ctrl:4:2", "sis"},
      {"ctrl:4:4", "sis"},        {"ctrl:5:2", "sis"},
      {"ctrl:5:3", "sis"},        {"pipe:3:2", "eijk"},
      {"pipe:3:2", "eijk+"},      {"pipe:3:2", "smv"},
      {"pipe:3:2", "sis"},        {"pipe:3:4", "eijk"},
      {"pipe:3:4", "eijk+"},      {"pipe:3:4", "smv"},
      {"pipe:3:4", "sis"},        {"pipe:4:2", "eijk"},
      {"pipe:4:2", "eijk+"},      {"pipe:4:2", "smv"},
      {"pipe:4:3", "eijk"},       {"pipe:4:3", "eijk+"},
      {"pipe:4:3", "smv"},        {"pipe:4:4", "eijk"},
      {"pipe:4:4", "eijk+"},      {"pipe:4:4", "smv"},
      {"pipe:5:1", "eijk"},       {"pipe:5:1", "eijk+"},
      {"pipe:5:1", "smv"},        {"pipe:5:2", "eijk"},
      {"pipe:5:2", "smv"},        {"pipe:6:1", "eijk"},
      {"pipe:6:1", "smv"},        {"pipe:6:2", "eijk"}};
  return cells;
}

std::string family_of(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void write_jobs(const std::string& path, const std::vector<JobInput>& jobs) {
  std::ostringstream out;
  out.precision(17);
  for (const JobInput& j : jobs) {
    out << j.circuit << '\t' << j.method << '\t' << j.timeout_sec << '\t'
        << (j.expect_equiv ? "EQUIV" : "NONEQUIV") << '\t'
        << (j.expect_cex.empty() ? "-" : j.expect_cex) << '\t' << j.family
        << '\n';
  }
  write_text(path, out.str());
}

/// A cone_cold-style design and its B side.  Each cone independently gets
/// no edit, an Equivalent (double inverter, folds in the miter) or an
/// EquivalentOpaque (absorption, needs an engine) edit, and — when
/// `allow_different` — rarely a Different (inverter) edit, which makes
/// the pair NONEQUIV with that cone's output as the first counterexample.
struct DesignPair {
  eda::circuit::GateNetlist a, b;
  std::string first_different;  ///< "" when the pair is EQUIV
};

DesignPair make_design_pair(std::uint64_t seed, bool allow_different) {
  const ConeShape shape;
  DesignPair d;
  d.a = eda::testlib::random_netlist_multi(
      seed, shape.inputs, shape.gates_per_cone * shape.cones, shape.ffs,
      shape.cones);
  d.b = d.a;
  std::mt19937_64 rng(seed ^ 0x0ddc0ffeeULL);
  // Per-cone weights: none 9, Equivalent 8, EquivalentOpaque 6,
  // Different 1 (so about half of all 16-cone pairs are NONEQUIV).
  std::uniform_int_distribution<int> pick(0, 23);
  for (int i = 0; i < shape.cones; ++i) {
    int r = pick(rng);
    int kind = r < 9 ? 0 : r < 17 ? 1 : r < 23 ? 2 : 3;
    if (kind == 3 && !allow_different) kind = 0;
    auto idx = static_cast<std::size_t>(i);
    if (kind == 1) {
      d.b = eda::testlib::mutate_cone(d.b, idx, ConeEdit::Equivalent);
    }
    if (kind == 2) {
      d.b = eda::testlib::mutate_cone(d.b, idx, ConeEdit::EquivalentOpaque);
    }
    if (kind == 3) {
      d.b = eda::testlib::mutate_cone(d.b, idx, ConeEdit::Different);
      if (d.first_different.empty()) {
        d.first_different = d.a.outputs()[idx].first;
      }
    }
  }
  return d;
}

std::string blif_spec(const std::string& a, const std::string& b) {
  return "blif:" + a + "," + b;
}

}  // namespace

void prepare_inputs(Workload w, std::uint64_t seed, const std::string& dir,
                    const InputSize& size) {
  std::mt19937_64 rng(mix_seed(seed, w));
  std::vector<JobInput> jobs;
  switch (w) {
    case Workload::HashRetime: {
      // A fixed share of the distinct obligations: after the warm-up, the
      // timed phase drains it in about 0.7x --seconds at the measured ~43
      // jobs/s.  Every proved theorem stays in the service's theorem cache,
      // so peak RSS grows with the obligations proved: proving the same
      // number in every run keeps it from following the run's throughput.
      auto pool = hash_pool();
      std::shuffle(pool.begin(), pool.end(), rng);
      const std::size_t keep =
          size.replay_sample
              ? 48
              : static_cast<std::size_t>(std::ceil(size.seconds * 30.0)) + 90;
      pool.resize(std::min(pool.size(), keep));
      for (const auto& [spec, family] : pool) {
        JobInput j;
        j.circuit = spec;
        j.method = "hash";
        j.family = family;
        jobs.push_back(j);
      }
      break;
    }
    case Workload::PosthocCheck: {
      // Pass k repeats every cell under a budget k ms above 10 s: the same
      // engine work, but a distinct verdict-cache key, so every job runs
      // its engine while the retiming theorem of each circuit is shared
      // across passes through the theorem cache.
      auto cells = posthoc_cells();
      int passes = size.replay_sample ? 1 : 160;
      for (int k = 0; k < passes; ++k) {
        std::shuffle(cells.begin(), cells.end(), rng);
        for (const auto& [spec, engine] : cells) {
          JobInput j;
          j.circuit = spec;
          j.method = engine;
          j.timeout_sec = 10.0 + 0.001 * k;
          j.family = family_of(spec) + "/" + engine;
          jobs.push_back(j);
        }
      }
      break;
    }
    case Workload::ConeCold: {
      // A fixed pool, drained by the timed phase in about 0.7x --seconds at
      // the measured ~62 jobs/s, for the reason hash_retime's is: every
      // published verdict stays in the embedded daemon's store.
      int pairs = size.replay_sample
                      ? 16
                      : static_cast<int>(std::ceil(size.seconds * 40.0)) + 110;
      for (int k = 0; k < pairs; ++k) {
        DesignPair d = make_design_pair(rng(), /*allow_different=*/true);
        std::string pa = dir + "/c" + std::to_string(k) + "_a.blif";
        std::string pb = dir + "/c" + std::to_string(k) + "_b.blif";
        write_text(pa, eda::io::write_blif(d.a, "a"));
        write_text(pb, eda::io::write_blif(d.b, "b"));
        JobInput j;
        j.circuit = blif_spec(pa, pb);
        j.method = "eijk";
        j.expect_equiv = d.first_different.empty();
        j.expect_cex = d.first_different;
        j.family = "pair";
        jobs.push_back(j);
      }
      break;
    }
    case Workload::EditReplay: {
      // Base designs are EQUIV pairs; each replay edits exactly one cone of
      // a base B side, and no (base, cone, edit) triple repeats in a run.
      const ConeShape shape;
      const int bases = size.replay_sample ? 4 : 240;
      std::vector<JobInput> base_jobs;
      std::vector<DesignPair> designs;
      std::vector<std::string> base_a;
      for (int d = 0; d < bases; ++d) {
        designs.push_back(make_design_pair(rng(), /*allow_different=*/false));
        std::string pa = dir + "/e" + std::to_string(d) + "_a.blif";
        std::string pb = dir + "/e" + std::to_string(d) + "_b.blif";
        write_text(pa, eda::io::write_blif(designs.back().a, "a"));
        write_text(pb, eda::io::write_blif(designs.back().b, "b"));
        base_a.push_back(pa);
        JobInput j;
        j.circuit = blif_spec(pa, pb);
        j.method = "eijk";
        j.family = "base";
        base_jobs.push_back(j);
      }
      write_jobs(dir + "/base.tsv", base_jobs);
      struct Triple {
        int base, cone, kind;
      };
      std::vector<Triple> triples;
      for (int d = 0; d < bases; ++d) {
        for (int c = 0; c < shape.cones; ++c) {
          for (int kind = 0; kind < 3; ++kind) triples.push_back({d, c, kind});
        }
      }
      // Time-based, unlike the other daemon workload: a replay adds one
      // verdict to the store, so peak RSS barely follows throughput.  The
      // pool covers the warm-up and the timed phase at over 500 jobs/s (at
      // most 240 bases x 16 cones x 3 edits).
      std::shuffle(triples.begin(), triples.end(), rng);
      std::size_t want =
          size.replay_sample
              ? 48
              : static_cast<std::size_t>(std::ceil(size.seconds * 600.0)) +
                    800;
      if (triples.size() > want) triples.resize(want);
      static const ConeEdit kKinds[3] = {ConeEdit::Equivalent,
                                         ConeEdit::EquivalentOpaque,
                                         ConeEdit::Different};
      static const char* kKindNames[3] = {"equivalent", "opaque",
                                          "different"};
      for (std::size_t k = 0; k < triples.size(); ++k) {
        const Triple& t = triples[k];
        const DesignPair& base = designs[static_cast<std::size_t>(t.base)];
        auto cone = static_cast<std::size_t>(t.cone);
        eda::circuit::GateNetlist edited =
            eda::testlib::mutate_cone(base.b, cone, kKinds[t.kind]);
        std::string pe = dir + "/r" + std::to_string(k) + ".blif";
        write_text(pe, eda::io::write_blif(edited, "b"));
        JobInput j;
        j.circuit = blif_spec(base_a[static_cast<std::size_t>(t.base)], pe);
        j.method = "eijk";
        j.expect_equiv = t.kind != 2;
        if (!j.expect_equiv) j.expect_cex = base.a.outputs()[cone].first;
        j.family = kKindNames[t.kind];
        jobs.push_back(j);
      }
      break;
    }
  }
  write_jobs(dir + "/jobs.tsv", jobs);
}

std::vector<JobInput> load_jobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<JobInput> jobs;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    JobInput j;
    std::string timeout, expect, cex;
    if (!std::getline(row, j.circuit, '\t') ||
        !std::getline(row, j.method, '\t') ||
        !std::getline(row, timeout, '\t') ||
        !std::getline(row, expect, '\t') || !std::getline(row, cex, '\t') ||
        !std::getline(row, j.family)) {
      throw std::runtime_error("malformed job line in " + path + ": " + line);
    }
    j.timeout_sec = std::stod(timeout);
    j.expect_equiv = expect == "EQUIV";
    j.expect_cex = cex == "-" ? "" : cex;
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace perfbench
