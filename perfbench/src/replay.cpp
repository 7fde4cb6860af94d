#include "replay.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.h"
#include "circuit/bitblast.h"
#include "hash/compile.h"
#include "hash/retime_step.h"
#include "harness.h"
#include "io/blif.h"
#include "kernel/thm.h"
#include "service/cache_backend.h"
#include "service/remote_backend.h"
#include "sim/bitsim.h"
#include "stats.h"
#include "theories/numeral.h"
#include "theories/pair_theory.h"
#include "theories/retiming_thm.h"
#include "trace.h"
#include "verify/batch_bdd.h"
#include "verify/cone.h"
#include "verify/symbolic.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using eda::kernel::Term;
namespace thy = eda::thy;
namespace verify = eda::verify;

/// Counts read at job boundaries (process-global counters are attributable
/// to one job because the replay runs on one thread).
struct JobCounts {
  std::uint64_t inferences = 0, new_terms = 0, intern_hits = 0;
  std::uint64_t round_trips = 0, cache_failures = 0;
  std::size_t cones = 0, lookups = 0, hits = 0;
  std::size_t identity = 0, fold = 0, sim = 0, engine = 0;
  std::uint64_t sim_vectors = 0, sim_attempts = 0;
  std::string engine_name;
  int image_steps = 0;  ///< engine iterations (VerifyResult::iterations)
  bool incomplete = false;
  std::size_t product_nodes = 0, peak_nodes = 0;
};

struct KernelSnapshot {
  std::uint64_t thms, live, hits;
  static KernelSnapshot now() {
    auto st = Term::intern_stats();
    return {eda::kernel::Thm::theorems_constructed(), st.live_nodes, st.hits};
  }
};

/// The verdict-cache key tail every engine verdict carries: (engine,
/// (timeout ms, (node limit, state limit))), as the service builds it.
Term engine_bounds(verify::Engine eng, double timeout_sec,
                   const verify::VerifyOptions& v) {
  return thy::mk_pair(
      thy::mk_numeral(static_cast<std::uint64_t>(eng)),
      thy::mk_pair(
          thy::mk_numeral(static_cast<std::uint64_t>(timeout_sec * 1000.0)),
          thy::mk_pair(thy::mk_numeral(v.node_limit),
                       thy::mk_numeral(v.state_limit))));
}

Term cone_key(const verify::ConePair& p, verify::Engine eng,
              double timeout_sec, const verify::VerifyOptions& v) {
  constexpr std::uint64_t kConeKeyTag = 0xc09eULL;
  return thy::mk_pair(
      thy::mk_numeral(kConeKeyTag),
      thy::mk_pair(thy::mk_pair(thy::mk_numeral(p.hash_a),
                                thy::mk_numeral(p.hash_b)),
                   engine_bounds(eng, timeout_sec, v)));
}

verify::Engine engine_of(const std::string& method) {
  std::optional<verify::Engine> e = verify::parse_engine(method);
  if (!e) throw std::invalid_argument("not an engine method: " + method);
  return *e;
}

eda::circuit::GateNetlist read_blif(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return eda::io::parse_blif(in);
}

std::pair<std::string, std::string> blif_paths(const std::string& circuit) {
  std::size_t comma = circuit.find(',');
  return {circuit.substr(5, comma - 5), circuit.substr(comma + 1)};
}

class Replay {
 public:
  Replay(Workload w, const std::string& dir, bool record)
      : w_(w), dir_(dir), rec_(record) {}

  int run(const std::string& trace_out);

 private:
  /// The HASH step of an RTL job, as the service runs it: resolve,
  /// compile, split, theorem-cache lookup, and on a miss formal_retime and
  /// publish.  Every RTL job (hash_retime's and posthoc_check's) starts so.
  struct Obligation {
    RtlObligation ob;
    eda::hash::CompiledCircuit comp;
  };
  Obligation theorem_step(int id, const JobInput& in,
                          eda::service::InProcessBackend& backend);
  void posthoc_job(int id, const JobInput& in,
                   eda::service::InProcessBackend& backend);
  /// One incremental blif-pair job as a fresh client: decompose, one
  /// batched lookup, cheap tiers in order, the batched engine tail, one
  /// batched publish.  Returns true when the verdict is right.
  bool cone_job(Recorder& rec, int id, const JobInput& in,
                const std::string& server);
  void service_pass(const std::vector<JobInput>& jobs);
  void report_metrics();

  double job_ms(int job, const char* name) const;
  std::vector<double> per_job(const char* name,
                              const std::vector<bool>* keep = nullptr) const;

  Workload w_;
  std::string dir_;
  Recorder rec_;
  std::vector<JobCounts> counts_;
  std::map<std::string, double> metrics_;
  std::map<std::string, Ratio> bases_;
  std::size_t wrong_ = 0;
  double in_job_ms_ = 0.0, client_ms_ = 0.0, retries_ = 0.0;
};

double Replay::job_ms(int job, const char* name) const {
  double ms = 0.0;
  for (const Span& s : rec_.spans()) {
    if (s.job == job && s.name == name) ms += s.ms();
  }
  return ms;
}

/// Per-job total of the spans called `name`, over the jobs where it ran
/// (and `keep` allows).
std::vector<double> Replay::per_job(const char* name,
                                    const std::vector<bool>* keep) const {
  std::map<int, double> sums;
  for (const Span& s : rec_.spans()) {
    if (s.name == name && s.job >= 0) sums[s.job] += s.ms();
  }
  std::vector<double> out;
  for (const auto& [job, ms] : sums) {
    if (keep == nullptr || (*keep)[static_cast<std::size_t>(job)]) {
      out.push_back(ms);
    }
  }
  return out;
}

Replay::Obligation Replay::theorem_step(
    int id, const JobInput& in, eda::service::InProcessBackend& backend) {
  RtlObligation ob = [&] {
    Scope s(rec_, "service.resolve", id);
    return resolve_rtl(in.circuit);
  }();
  std::optional<eda::hash::CompiledCircuit> comp;
  {
    Scope s(rec_, "hash.compile", id);
    comp = eda::hash::compile(ob.rtl);
  }
  std::optional<eda::hash::SplitCircuit> split;
  {
    Scope s(rec_, "hash.split", id);
    split = eda::hash::compile_split(ob.rtl, ob.cut);
  }
  Term goal = thy::mk_pair(split->f, thy::mk_pair(split->g, comp->q));
  bool hit = false;
  std::optional<eda::kernel::Thm> thm;
  {
    Scope s(rec_, "service.cache.theorem_lookup", id);
    thm = backend.lookup_theorem(goal, &hit);
  }
  bases_["service.cache.theorem_hit_frac"].add(hit);
  if (!thm) {
    {
      Scope s(rec_, "hash.retime", id);
      thm = eda::hash::formal_retime(ob.rtl, ob.cut).theorem;
    }
    Scope s(rec_, "service.cache.theorem_publish", id);
    backend.publish_theorem(goal, *thm);
  }
  return {std::move(ob), std::move(*comp)};
}

void Replay::posthoc_job(int id, const JobInput& in,
                         eda::service::InProcessBackend& backend) {
  JobCounts& c = counts_[static_cast<std::size_t>(id)];
  const verify::Engine eng = engine_of(in.method);
  verify::VerifyOptions vopts;
  vopts.timeout_sec = in.timeout_sec;
  std::optional<eda::circuit::GateNetlist> ga, gb;
  {
    Scope job(rec_, "job", id);
    // The theorem step proves only on a theorem-cache miss: the first
    // engine of each circuit.
    Obligation o = theorem_step(id, in, backend);
    std::optional<eda::circuit::Rtl> retimed;
    {
      Scope s(rec_, "hash.conventional_retime", id);
      retimed = eda::hash::conventional_retime(o.ob.rtl, o.ob.cut);
    }
    {
      Scope s(rec_, "circuit.bitblast", id);
      ga = eda::circuit::bit_blast(o.ob.rtl);
    }
    Term key = [&] {
      Scope s(rec_, "hash.compile", id);
      eda::hash::CompiledCircuit compb = eda::hash::compile(*retimed);
      Term pair_goal = thy::mk_pair(
          o.comp.h, thy::mk_pair(o.comp.q, thy::mk_pair(compb.h, compb.q)));
      return thy::mk_pair(pair_goal,
                          engine_bounds(eng, in.timeout_sec, vopts));
    }();
    backend.lookup_verdict(key, nullptr);
    {
      Scope s(rec_, "circuit.bitblast", id);
      gb = eda::circuit::bit_blast(*retimed);
    }
    eda::sim::RefuteResult sr;
    {
      Scope s(rec_, "sim.refute", id);
      sr = eda::sim::refute(*ga, *gb, eda::sim::SimOptions{});
    }
    verify::VerifyResult v;
    if (sr.refuted) {
      v.completed = true;  // equivalent stays false: a wrong verdict
    } else {
      Scope s(rec_, "verify.engine", id);
      v = verify::run_check({&*ga, &*gb, eng, vopts});
    }
    c.engine_name = in.method;
    c.image_steps = v.iterations;
    c.incomplete = !v.completed;
    c.peak_nodes = v.peak;
    if (v.completed && !v.equivalent) ++wrong_;
    backend.publish_verdict(key, v, v.completed);
  }
  if (rec_.enabled() && eng != verify::Engine::SisFsm) {
    // Measurement only, outside the job (the engine built its own): the
    // product machine in a fresh manager, for the BDD layer's build time
    // and node count.
    Scope s(rec_, "bdd.product_build", id);
    eda::bdd::BddManager mgr(verify::product_var_count(*ga, *gb),
                             verify::VerifyOptions{}.node_limit);
    verify::build_product(mgr, *ga, *gb);
    c.product_nodes = mgr.node_table_size();
  }
}

bool Replay::cone_job(Recorder& rec, int id, const JobInput& in,
                      const std::string& server) {
  const verify::Engine eng = engine_of(in.method);
  verify::VerifyOptions vopts;
  vopts.timeout_sec = in.timeout_sec;
  JobCounts c;
  Scope job(rec, "job", id);
  std::unique_ptr<eda::service::RemoteBackend> backend;
  {
    Scope s(rec, "service.cache.connect", id);
    eda::service::RemoteBackendOptions ro;
    ro.server = server;
    ro.tenant = "default";
    ro.pool = 1;
    backend = std::make_unique<eda::service::RemoteBackend>(ro);
  }
  auto [path_a, path_b] = blif_paths(in.circuit);
  std::optional<eda::circuit::GateNetlist> a, b;
  {
    Scope s(rec, "io.parse", id);
    a = read_blif(path_a);
    b = read_blif(path_b);
  }
  std::vector<verify::ConePair> pairs;
  {
    Scope s(rec, "io.cone_extract", id);
    pairs = verify::pair_cones(*a, *b);
  }
  std::vector<Term> keys;
  {
    Scope s(rec, "service.cone_keys", id);
    for (const verify::ConePair& p : pairs) {
      keys.push_back(cone_key(p, eng, in.timeout_sec, vopts));
    }
  }
  std::vector<std::uint8_t> hit;
  std::vector<std::optional<verify::VerifyResult>> cached;
  {
    Scope s(rec, "service.cache.lookup", id);
    cached = backend->lookup_verdicts(keys, &hit);
  }
  // The cheap tiers in the service's order, on every cone the cache did
  // not answer: identity (equal canonical cones), miter fold, simulation.
  std::vector<verify::ConeVerdict> cones(pairs.size());
  std::vector<std::size_t> rest;
  std::vector<verify::CheckJob> engine_jobs;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const verify::ConePair& p = pairs[i];
    verify::ConeVerdict& cv = cones[i];
    cv.output = p.output;
    cv.cache_hit = hit[i] != 0;
    ++c.cones;
    if (cached[i]) {
      ++c.hits;
      cv.result = *cached[i];
      continue;
    }
    cv.result.completed = true;
    if (p.hash_a == p.hash_b) {
      ++c.identity;
      cv.result.equivalent = true;
      continue;
    }
    bool fold0 = false, fold1 = false;
    {
      Scope s(rec, "verify.miter", id);
      eda::circuit::GateNetlist m = verify::build_miter(p.a, p.b);
      fold0 = verify::miter_output_is_const(m, false);
      fold1 = verify::miter_output_is_const(m, true);
    }
    if (fold0 || fold1) {
      ++c.fold;
      cv.result.equivalent = fold0;
      continue;
    }
    eda::sim::RefuteResult sr;
    {
      Scope s(rec, "sim.refute", id);
      sr = eda::sim::refute(p, eda::sim::SimOptions{});
    }
    ++c.sim_attempts;
    c.sim_vectors += sr.vectors;
    if (sr.refuted) {
      ++c.sim;
      cv.result.sim_refuted = true;
      cv.result.counterexample = sr.cex.output;
      continue;
    }
    ++c.engine;
    rest.push_back(i);
    engine_jobs.push_back({&p.a, &p.b, eng, vopts});
  }
  if (!engine_jobs.empty()) {
    Scope s(rec, "verify.batch_engine", id);
    std::vector<verify::VerifyResult> proved = verify::check_batch(engine_jobs);
    for (std::size_t k = 0; k < rest.size(); ++k) {
      cones[rest[k]].result = proved[k];
    }
  }
  std::vector<eda::service::VerdictPublish> pubs;
  for (std::size_t i = 0; i < cones.size(); ++i) {
    if (!cones[i].cache_hit) {
      pubs.push_back({keys[i], cones[i].result, cones[i].result.completed});
    }
  }
  {
    Scope s(rec, "service.cache.publish", id);
    backend->publish_verdicts(std::move(pubs));
  }
  verify::StitchedVerdict sv = verify::stitch_verdicts(cones);
  eda::service::BackendStats st = backend->stats();
  c.lookups = pairs.size();
  c.round_trips = st.remote_round_trips;  // the connect-time ping included
  c.cache_failures = st.remote_failures + st.degraded_ops;
  if (id >= 0) counts_[static_cast<std::size_t>(id)] = c;
  bool right = sv.completed && sv.equivalent == in.expect_equiv &&
               (in.expect_equiv || sv.counterexample == in.expect_cex);
  if (!right) {
    std::fprintf(stderr, "perfbench replay: job %d %s: wrong verdict\n", id,
                 in.circuit.c_str());
  }
  return right;
}

/// posthoc_check's jobs through VerifyService::run_one on one thread, for
/// the in-job time beside the client's and the retry count.
void Replay::service_pass(const std::vector<JobInput>& jobs) {
  eda::service::ServiceOptions o;
  o.jobs = 1;
  eda::service::VerifyService svc(o);
  std::vector<double> in_job, client;
  double retries = 0.0;
  for (const JobInput& in : jobs) {
    auto t0 = Clock::now();
    eda::service::JobResult r = svc.run_one(job_spec(in));
    client.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    in_job.push_back(1000.0 * r.total_sec);
    retries += r.attempts > 1 ? r.attempts - 1 : 0;
    if (judge(in, r) == Outcome::Wrong) ++wrong_;
  }
  in_job_ms_ = median(in_job);
  client_ms_ = median(client);
  retries_ = jobs.empty() ? 0.0 : retries / static_cast<double>(jobs.size());
}

void Replay::report_metrics() {
  auto med = [&](const char* metric, const char* span,
                 const std::vector<bool>* keep = nullptr) {
    metrics_[metric] = median(per_job(span, keep));
  };
  auto ratio = [&](const char* metric, Ratio r) {
    bases_[metric] = r;
    metrics_[metric] = r.value();
  };
  const std::size_t n = counts_.size();
  auto mean_of = [&](auto field) {
    double sum = 0.0;
    for (const JobCounts& c : counts_) sum += static_cast<double>(field(c));
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  switch (w_) {
    case Workload::HashRetime: {
      Ratio intern;
      for (const JobCounts& c : counts_) {
        intern.num += c.intern_hits;
        intern.den += c.intern_hits + c.new_terms;
      }
      metrics_["kernel.inferences_per_job"] =
          mean_of([](const JobCounts& c) { return c.inferences; });
      metrics_["kernel.new_terms_per_job"] =
          mean_of([](const JobCounts& c) { return c.new_terms; });
      ratio("kernel.intern_hit_frac", intern);
      med("hash.compile_ms", "hash.compile");
      med("hash.split_ms", "hash.split");
      med("hash.retime_ms", "hash.retime");
      std::vector<double> self;
      for (std::size_t j = 0; j < n; ++j) {
        int id = static_cast<int>(j);
        self.push_back(job_ms(id, "hash.retime") - job_ms(id, "hash.compile") -
                       job_ms(id, "hash.split"));
      }
      metrics_["hash.retime_self_ms"] = median(self);
      break;
    }
    case Workload::PosthocCheck: {
      med("circuit.bitblast_ms", "circuit.bitblast");
      const std::pair<const char*, const char*> engines[] = {
          {"eijk", "verify.eijk_ms"},
          {"eijk+", "verify.eijk_plus_ms"},
          {"smv", "verify.smv_ms"},
          {"sis", "verify.sis_ms"}};
      for (const auto& [engine, metric] : engines) {
        std::vector<bool> keep;
        for (const JobCounts& c : counts_) {
          keep.push_back(c.engine_name == engine);
        }
        med(metric, "verify.engine", &keep);
      }
      Ratio incomplete;
      std::vector<double> steps, peaks, nodes;
      for (const JobCounts& c : counts_) {
        incomplete.add(c.incomplete);
        steps.push_back(c.image_steps);
        if (c.engine_name != "sis") {
          peaks.push_back(static_cast<double>(c.peak_nodes));
          nodes.push_back(static_cast<double>(c.product_nodes));
        }
      }
      metrics_["verify.image_steps_per_job"] = mean(steps);
      ratio("verify.incomplete_frac", incomplete);
      med("bdd.product_build_ms", "bdd.product_build");
      metrics_["bdd.product_nodes"] = median(nodes);
      metrics_["bdd.peak_nodes"] = median(peaks);
      ratio("service.cache.theorem_hit_frac",
            bases_["service.cache.theorem_hit_frac"]);
      metrics_["service.in_job_ms"] = in_job_ms_;
      metrics_["service.retries_per_job"] = retries_;
      std::printf("  service pass: in-job %.3f ms, client %.3f ms (medians)\n",
                  in_job_ms_, client_ms_);
      break;
    }
    case Workload::ConeCold: {
      Ratio identity, fold, sim, engine, refuted;
      std::uint64_t vectors = 0;
      for (const JobCounts& c : counts_) {
        std::size_t tiered = c.cones - c.hits;
        identity += Ratio{c.identity, tiered};
        fold += Ratio{c.fold, tiered};
        sim += Ratio{c.sim, tiered};
        engine += Ratio{c.engine, tiered};
        refuted += Ratio{c.sim, c.sim_attempts};
        vectors += c.sim_vectors;
      }
      ratio("verify.identity_frac", identity);
      ratio("verify.fold_frac", fold);
      ratio("verify.sim_frac", sim);
      ratio("verify.engine_frac", engine);
      med("verify.miter_ms", "verify.miter");
      med("sim.refute_ms", "sim.refute");
      metrics_["sim.vectors_per_cone"] =
          refuted.den == 0 ? 0.0
                           : static_cast<double>(vectors) /
                                 static_cast<double>(refuted.den);
      ratio("sim.refute_hit_frac", refuted);
      med("verify.batch_engine_ms", "verify.batch_engine");
      med("service.cache.publish_ms", "service.cache.publish");
      break;
    }
    case Workload::EditReplay: {
      Ratio hits;
      std::uint64_t failures = 0;
      for (const JobCounts& c : counts_) {
        hits += Ratio{c.hits, c.lookups};
        failures += c.cache_failures;
      }
      med("io.parse_ms", "io.parse");
      med("io.cone_extract_ms", "io.cone_extract");
      med("service.cache.lookup_ms", "service.cache.lookup");
      metrics_["service.cache.round_trips_per_job"] =
          mean_of([](const JobCounts& c) { return c.round_trips; });
      ratio("service.cache.verdict_hit_frac", hits);
      metrics_["service.cache.failures"] = static_cast<double>(failures);
      break;
    }
  }
}

int Replay::run(const std::string& trace_out) {
  std::vector<JobInput> jobs = load_jobs(dir_ + "/jobs.tsv");
  counts_.resize(jobs.size());
  {
    Scope s(rec_, "theories.retiming_thm", -1);
    thy::retiming_thm();
  }
  // The daemon workloads: edit_replay's store is first filled by proving
  // the base pairs through this same replica (untraced), then restored
  // from its snapshot the way a restarted daemon warms up.
  std::unique_ptr<eda::service::CacheServer> daemon;
  const std::string server = "unix:" + dir_ + "/replay.sock";
  const std::string warm = dir_ + "/replay_warm.bin";
  auto start_daemon = [&](const std::string& file) {
    eda::service::CacheServerOptions so;
    so.listen = server;
    so.cache_file = file;
    std::remove(server.c_str() + 5);
    daemon = std::make_unique<eda::service::CacheServer>(so);
    daemon->start();
  };
  if (w_ == Workload::EditReplay) {
    std::remove(warm.c_str());
    start_daemon(warm);
    Recorder off(false);
    for (const JobInput& base : load_jobs(dir_ + "/base.tsv")) {
      if (!cone_job(off, -1, base, server)) ++wrong_;
    }
    daemon->stop();
    Scope s(rec_, "service.cache.warm_start", -1);
    start_daemon(warm);
  } else if (w_ == Workload::ConeCold) {
    start_daemon("");
  }

  eda::service::InProcessBackend backend;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    int id = static_cast<int>(i);
    KernelSnapshot k0{};
    if (rec_.enabled()) k0 = KernelSnapshot::now();
    switch (w_) {
      case Workload::HashRetime: {
        Scope job(rec_, "job", id);
        theorem_step(id, jobs[i], backend);
        break;
      }
      case Workload::PosthocCheck:
        posthoc_job(id, jobs[i], backend);
        break;
      case Workload::ConeCold:
      case Workload::EditReplay:
        if (!cone_job(rec_, id, jobs[i], server)) ++wrong_;
        break;
    }
    if (rec_.enabled()) {
      KernelSnapshot k1 = KernelSnapshot::now();
      JobCounts& c = counts_[i];
      c.inferences = k1.thms - k0.thms;
      c.new_terms = k1.live - k0.live;
      c.intern_hits = k1.hits - k0.hits;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (daemon) {
    daemon->stop();
    std::remove(server.c_str() + 5);
  }

  std::printf("perfbench replay %s: %zu jobs on one thread in %.3f s%s\n",
              workload_name(w_), jobs.size(), wall_s,
              rec_.enabled() ? ", traced" : ", recording off");
  if (rec_.enabled()) {
    if (w_ == Workload::PosthocCheck) service_pass(jobs);
    for (const Span& s : rec_.spans()) {
      if (s.name == "theories.retiming_thm" && w_ == Workload::HashRetime) {
        metrics_["theories.retiming_thm_ms"] = s.ms();
      }
      if (s.name == "service.cache.warm_start") {
        metrics_["service.cache.warm_start_ms"] = s.ms();
      }
    }
    report_metrics();
    for (const auto& [name, value] : metrics_) {
      auto b = bases_.find(name);
      std::printf("  %-36s %.6g%s%s\n", name.c_str(), value,
                  b == bases_.end() ? "" : "  base ",
                  b == bases_.end() ? "" : b->second.str().c_str());
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << chrome_trace_json(rec_.spans(), workload_name(w_));
      if (!out) throw std::runtime_error("cannot write " + trace_out);
    }
  }
  std::printf("{\"workload\": \"%s\", \"replay_wall_s\": %.6f, \"jobs\": %zu, "
              "\"wrong\": %zu, \"metrics\": {",
              workload_name(w_), wall_s, jobs.size(), wrong_);
  const char* sep = "";
  for (const auto& [name, value] : metrics_) {
    std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return wrong_ == 0 ? 0 : 1;
}

}  // namespace

int replay_main(Workload w, const std::string& dir, bool record,
                const std::string& trace_out) {
  Replay r(w, dir, record);
  return r.run(trace_out);
}

}  // namespace perfbench
