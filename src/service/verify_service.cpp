#include "service/verify_service.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <future>
#include <mutex>
#include <utility>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "bdd/bdd.h"
#include "circuit/bitblast.h"
#include "hash/compile.h"
#include "hash/retime_step.h"
#include "io/blif.h"
#include "kernel/parallel.h"
#include "kernel/thm.h"
#include "service/fault.h"
#include "service/remote_backend.h"
#include "service/spec_util.h"
#include "sim/bitsim.h"
#include "theories/numeral.h"
#include "theories/pair_theory.h"
#include "verify/batch_bdd.h"
#include "verify/cone.h"
#include "verify/retime_match.h"

namespace eda::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

std::optional<verify::Engine> engine_of(Method method) {
  switch (method) {
    case Method::Eijk:
      return verify::Engine::Eijk;
    case Method::EijkPlus:
      return verify::Engine::EijkPlus;
    case Method::Smv:
      return verify::Engine::Smv;
    case Method::Sis:
      return verify::Engine::SisFsm;
    case Method::Hash:
    case Method::Match:
      break;
  }
  return std::nullopt;
}

std::vector<std::string> split_on(const std::string& s, char sep) {
  return detail::split(s, sep, /*keep_empty=*/true);
}

/// The (engine, resource bounds) tail shared by every verdict-cache key: a
/// completed verdict is a pure function of the two circuits AND of the
/// engine and budget it ran under, so all of them key the entry.
kernel::Term engine_bounds_term(verify::Engine eng, double timeout_sec,
                                const verify::VerifyOptions& vopts) {
  kernel::Term bounds = thy::mk_pair(
      thy::mk_numeral(static_cast<std::uint64_t>(timeout_sec * 1000.0)),
      thy::mk_pair(thy::mk_numeral(vopts.node_limit),
                   thy::mk_numeral(vopts.state_limit)));
  return thy::mk_pair(
      thy::mk_numeral(static_cast<std::uint64_t>(eng)), bounds);
}

/// Leading markers of the hash-keyed verdict families: whole blif pairs
/// and the per-cone obligations of the incremental path.  Two disjoint
/// families, both disjoint from the RTL keys (whose first component is a
/// compiled-circuit lambda term, never a numeral), so a whole-pair verdict
/// and a cone verdict for the same hashes can never collide.
constexpr std::uint64_t kBlifKeyTag = 0xb11fULL;
constexpr std::uint64_t kConeKeyTag = 0xc09eULL;

/// A 64-bit structural digest as ONE interned node: the `num`-typed
/// constant `#` followed by the digest's 16 hex digits.  No declared
/// constant starts with `#`, and the node never enters an inference; it
/// only has to identify a key through the serializer, the cache file and
/// the daemon, all of which re-intern constants without a signature
/// lookup.  A binary numeral would cost about 64 permanent nodes a digest.
kernel::Term digest_term(std::uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string name(17, '#');
  for (int i = 0; i < 16; ++i) name[16 - i] = kHex[(h >> (4 * i)) & 0xf];
  return kernel::Term::constant(std::move(name), kernel::num_ty());
}

/// The verdict key of a hash-keyed obligation: (tag, (digests, bounds)).
kernel::Term cone_key(std::uint64_t tag, const verify::ConePair& p,
                      const kernel::Term& bounds) {
  kernel::Term hashes =
      thy::mk_pair(digest_term(p.hash_a), digest_term(p.hash_b));
  return thy::mk_pair(thy::mk_numeral(tag), thy::mk_pair(hashes, bounds));
}

int spec_int(const std::string& spec, const std::string& field) {
  return detail::parse_positive_int("circuit spec '" + spec + "'", field);
}

/// A circuit spec resolved to its obligation: either an RTL netlist plus
/// the retiming cut, or (blif: specs) a pair of gate-level netlists.
struct Resolved {
  bool is_pair = false;
  circuit::Rtl rtl;
  hash::Cut cut;
  circuit::GateNetlist net_a, net_b;
};

Resolved resolve_circuit(const std::string& spec) {
  Resolved rc;
  if (spec.rfind("blif:", 0) == 0) {
    std::vector<std::string> files = split_on(spec.substr(5), ',');
    if (files.size() != 2 || files[0].empty() || files[1].empty()) {
      throw ServiceError("circuit spec '" + spec +
                         "': expected blif:FILE_A,FILE_B");
    }
    rc.is_pair = true;
    for (int side = 0; side < 2; ++side) {
      std::ifstream in(files[static_cast<std::size_t>(side)]);
      if (!in) {
        throw ServiceError("circuit spec '" + spec + "': cannot open " +
                           files[static_cast<std::size_t>(side)]);
      }
      (side == 0 ? rc.net_a : rc.net_b) = io::parse_blif(in);
    }
    return rc;
  }
  std::vector<std::string> parts = split_on(spec, ':');
  const std::string& kind = parts[0];
  if (kind == "fig2" && parts.size() == 2) {
    bench_gen::Fig2 fig2 = bench_gen::make_fig2(spec_int(spec, parts[1]));
    rc.rtl = std::move(fig2.rtl);
    rc.cut = std::move(fig2.good_cut);
  } else if (kind == "fig2deep" && parts.size() == 3) {
    bench_gen::Fig2Deep deep = bench_gen::make_fig2_deep(
        spec_int(spec, parts[1]), spec_int(spec, parts[2]));
    rc.rtl = std::move(deep.rtl);
    rc.cut.f_nodes = std::move(deep.inc_nodes);
  } else if (kind == "mult" && parts.size() == 2) {
    bench_gen::BenchCircuit bench = bench_gen::make_serial_multiplier(
        spec, spec_int(spec, parts[1]));
    rc.rtl = std::move(bench.rtl);
    rc.cut = std::move(bench.cut);
  } else if (kind == "ctrl" && parts.size() == 3) {
    bench_gen::BenchCircuit bench = bench_gen::make_controller(
        spec, spec_int(spec, parts[1]), spec_int(spec, parts[2]));
    rc.rtl = std::move(bench.rtl);
    rc.cut = std::move(bench.cut);
  } else if (kind == "pipe" && parts.size() == 3) {
    bench_gen::BenchCircuit bench = bench_gen::make_pipeline_alu(
        spec, spec_int(spec, parts[1]), spec_int(spec, parts[2]));
    rc.rtl = std::move(bench.rtl);
    rc.cut = std::move(bench.cut);
  } else if (kind == "iwls" && parts.size() == 2) {
    std::optional<bench_gen::BenchCircuit> bench =
        bench_gen::find_iwls_benchmark(parts[1]);
    if (!bench) {
      throw ServiceError("circuit spec '" + spec +
                         "': no such iwls benchmark");
    }
    rc.rtl = std::move(bench->rtl);
    rc.cut = std::move(bench->cut);
  } else {
    throw ServiceError(
        "unknown circuit spec '" + spec +
        "' (expected fig2:N, fig2deep:N:S, mult:N, ctrl:S:T, pipe:W:D, "
        "iwls:NAME or blif:A,B)");
  }
  return rc;
}

}  // namespace

const char* method_name(Method method) {
  switch (method) {
    case Method::Hash:
      return "hash";
    case Method::Match:
      return "match";
    case Method::Eijk:
    case Method::EijkPlus:
    case Method::Smv:
    case Method::Sis:
      return verify::engine_name(*engine_of(method));
  }
  return "?";  // unreachable
}

std::optional<Method> parse_method(const std::string& name) {
  if (name == "hash") return Method::Hash;
  if (name == "match") return Method::Match;
  if (std::optional<verify::Engine> eng = verify::parse_engine(name)) {
    switch (*eng) {
      case verify::Engine::Eijk:
        return Method::Eijk;
      case verify::Engine::EijkPlus:
        return Method::EijkPlus;
      case verify::Engine::Smv:
        return Method::Smv;
      case verify::Engine::SisFsm:
        return Method::Sis;
    }
  }
  return std::nullopt;
}

namespace {

/// Build the one CacheBackend the service runs against, from the cache
/// policy group: remote when a server is named, file when a cache file is
/// bound, in-process otherwise.
std::unique_ptr<CacheBackend> make_backend(const ServiceOptions& opts) {
  const CachePolicy& c = opts.cache;
  if (!c.server.empty()) {
    RemoteBackendOptions ro;
    ro.server = c.server;
    ro.tenant = c.tenant;
    ro.connect_timeout_ms = c.remote_connect_timeout_ms;
    ro.io_timeout_ms = c.remote_io_timeout_ms;
    ro.backoff_ms = c.remote_backoff_ms;
    ro.backoff_cap_ms = c.remote_backoff_cap_ms;
    ro.pool = c.remote_pool;
    return std::make_unique<RemoteBackend>(std::move(ro));
  }
  if (!c.file.empty()) {
    return std::make_unique<FileBackend>(c.file, c.file_options);
  }
  return std::make_unique<InProcessBackend>();
}

}  // namespace

struct VerifyService::Impl {
  explicit Impl(ServiceOptions opts_)
      : opts(std::move(opts_)),
        pool(opts.jobs == 0 ? kernel::default_thread_count() : opts.jobs),
        backend(make_backend(opts)) {}

  JobResult run_job(const JobSpec& spec);
  verify::StitchedVerdict discharge(const JobSpec& spec,
                                    const verify::VerifyOptions& vopts,
                                    const std::vector<verify::ConePair>& pairs,
                                    const std::vector<kernel::Term>& keys,
                                    CacheBackend& cache, JobResult& r);

  ServiceOptions opts;
  kernel::ThreadPool pool;
  /// The shared obligation cache seam (service/cache_backend.h), keyed on
  /// interned goal terms (alpha-hashed): the retiming theorem for a
  /// (f, g, q) instantiation, and the engine verdict for a
  /// (h_a, q_a, h_b, q_b, engine, bounds) check.
  std::unique_ptr<CacheBackend> backend;

  std::mutex mu;
  std::vector<std::future<JobResult>> inflight;
  std::size_t jobs_total = 0;
  std::size_t failed_total = 0;
  double wall_total = 0.0;
  double cpu_total = 0.0;
  bool batch_open = false;
  Clock::time_point batch_t0;
  double batch_cpu0 = 0.0;
};

/// The one obligation pipeline, for every job with an engine method: the
/// obligations are `pairs`, keyed by `keys`.  ONE batched lookup (against
/// a remote backend, a single LookupBatch frame), the engine-free tiers
/// (identity, miter fold, sim refutation) on the misses in parallel, ONE
/// shared-pool check_batch over the survivors, ONE batched publish of
/// everything the job proved.  Each survivor's batch result is the first
/// attempt of its guarded run; a retry — or every attempt, when the batch
/// itself throws — re-runs that obligation alone, so the shared pool can
/// cost time but never a verdict.  Cache hits are not re-published: their
/// lookup already counted, and lookup()/publish() pairing keeps the
/// cache's 1-miss/k-1-hit accounting per entry.  The stitched verdict and
/// its accounting land in `r`.
verify::StitchedVerdict VerifyService::Impl::discharge(
    const JobSpec& spec, const verify::VerifyOptions& vopts,
    const std::vector<verify::ConePair>& pairs,
    const std::vector<kernel::Term>& keys, CacheBackend& cache, JobResult& r) {
  const std::size_t n = pairs.size();
  std::vector<std::uint8_t> hit;
  std::vector<std::optional<verify::VerifyResult>> settled =
      cache.lookup_verdicts(keys, &hit);
  std::vector<std::uint64_t> spent(n, 0);
  const sim::SimOptions sim_opts{opts.sim.vectors, opts.sim.frames,
                                 opts.sim.seed};
  kernel::parallel_for(
      n,
      [&](std::size_t i) {
        if (!settled[i]) {
          settled[i] = verify::check_cone_fast(
              {&pairs[i], opts.sim.enabled, sim_opts}, &spent[i]);
        }
      },
      pool);

  std::vector<std::size_t> rest;
  std::vector<verify::CheckJob> engine_jobs;
  for (std::size_t i = 0; i < n; ++i) {
    if (settled[i]) continue;
    rest.push_back(i);
    engine_jobs.push_back(
        {&pairs[i].a, &pairs[i].b, *engine_of(spec.method), vopts});
  }
  std::vector<verify::VerifyResult> batch;
  if (!rest.empty()) {
    try {
      if (FaultInjector::instance().should_fail(kFaultBatchPool)) {
        throw bdd::BddError("injected batched-pool failure");
      }
      batch = verify::check_batch(engine_jobs);
    } catch (const std::exception&) {
      // No batch result: every survivor runs alone, guarded, below.
    }
  }
  // The service-wide retry group, specialised by the job's own retry
  // budget and deadline.
  RetryPolicy policy = opts.retry;
  if (spec.max_retries >= 0) policy.max_retries = spec.max_retries;
  policy.deadline_sec =
      spec.deadline_ms > 0.0 ? spec.deadline_ms / 1000.0 : 0.0;
  std::vector<GuardedRun> runs(rest.size());
  kernel::parallel_for(
      rest.size(),
      [&](std::size_t k) {
        runs[k] = run_guarded(
            policy, vopts,
            [&](const verify::VerifyOptions& cur) {
              verify::CheckJob alone = engine_jobs[k];
              alone.opts = cur;
              return verify::check_batch({alone}).front();
            },
            batch.empty() ? nullptr : &batch[k]);
      },
      pool);
  for (std::size_t k = 0; k < rest.size(); ++k) {
    runs[k].result.sim_vectors = spent[rest[k]];
    settled[rest[k]] = runs[k].result;
    r.attempts = std::max(r.attempts, runs[k].attempts);
    r.backoff_ms += runs[k].backoff_ms;
  }

  std::vector<verify::ConeVerdict> verdicts(n);
  std::vector<VerdictPublish> pubs;
  std::vector<std::size_t> pub_idx;
  for (std::size_t i = 0; i < n; ++i) {
    verdicts[i].output = pairs[i].output;
    verdicts[i].cache_hit = hit[i] != 0;
    if (verdicts[i].cache_hit) {
      verdicts[i].result = *settled[i];
      continue;
    }
    // Only a completed verdict is a pure function of the pair, engine and
    // bounds; a blown budget describes this machine at this moment, so it
    // is returned uncached and a later identical job gets to retry.
    pubs.push_back({keys[i], *settled[i], settled[i]->completed});
    pub_idx.push_back(i);
  }
  std::vector<std::pair<verify::VerifyResult, bool>> published =
      cache.publish_verdicts(std::move(pubs));
  for (std::size_t k = 0; k < pub_idx.size(); ++k) {
    verdicts[pub_idx[k]].result = std::move(published[k].first);
  }

  verify::StitchedVerdict sv = verify::stitch_verdicts(verdicts);
  r.counterexample = sv.counterexample;
  r.sim_refuted = sv.sim_refuted;
  r.sim_vectors = sv.sim_vectors;
  r.completed = sv.completed;
  r.equivalent = sv.equivalent;
  if (sv.completed) {
    r.verdict = sv.equivalent ? VerdictClass::Equiv : VerdictClass::Nonequiv;
  } else {
    // The job inherits the first unresolved obligation's failure class.
    for (const verify::ConeVerdict& cv : verdicts) {
      if (!cv.result.completed) {
        r.verdict = classify_result(cv.result);
        break;
      }
    }
  }
  // "Cache hit" at job granularity = every obligation came from cache.
  r.result_cache_hit = sv.reproved == 0;
  return sv;
}

JobResult VerifyService::Impl::run_job(const JobSpec& spec) {
  JobResult r;
  r.circuit = spec.circuit;
  r.method = spec.method;
  r.tenant = spec.tenant.empty() ? opts.cache.tenant : spec.tenant;
  r.name = spec.name.empty()
               ? spec.circuit + "/" + method_name(spec.method)
               : spec.name;
  auto t0 = Clock::now();
  try {
    const std::optional<verify::Engine> eng = engine_of(spec.method);
    // Reject the method/spec mismatch before touching any files: the
    // diagnostic should name the real problem, not a side effect of it.
    if (spec.circuit.rfind("blif:", 0) == 0 && !eng) {
      throw ServiceError(std::string("method ") + method_name(spec.method) +
                         " needs an RTL circuit spec (a blif: pair carries "
                         "no retiming to prove)");
    }
    // Validate up front: a non-positive / non-finite timeout would both
    // misconfigure the engines and hit undefined behaviour in the
    // float-to-integer cast of the verdict-cache key.
    if (!(spec.timeout_sec > 0.0) || spec.timeout_sec > 1e6) {
      throw ServiceError("timeout must be in (0, 1e6] seconds");
    }
    Resolved rc = resolve_circuit(spec.circuit);
    verify::VerifyOptions vopts;
    vopts.timeout_sec = spec.timeout_sec;
    // With sharing off, the job runs against its own empty cache.
    std::unique_ptr<CacheBackend> own;
    if (!opts.cache.share) own = std::make_unique<InProcessBackend>();
    CacheBackend& cache = own ? *own : *backend;

    // Lower the job to its obligations, each a pair plus its verdict key.
    std::vector<verify::ConePair> pairs;
    std::vector<kernel::Term> keys;
    bool decomposed = false;
    auto tv = Clock::now();
    if (rc.is_pair) {
      const circuit::GateNetlist& a = rc.net_a;
      const circuit::GateNetlist& b = rc.net_b;
      r.ff = a.ff_count();
      r.gates = a.gate_count();
      if (a.inputs().size() != b.inputs().size() ||
          a.outputs().size() != b.outputs().size()) {
        throw ServiceError(
            "circuit spec '" + spec.circuit + "': interface mismatch (" +
            std::to_string(a.inputs().size()) + "/" +
            std::to_string(a.outputs().size()) + " vs " +
            std::to_string(b.inputs().size()) + "/" +
            std::to_string(b.outputs().size()) + " inputs/outputs)");
      }
      kernel::Term bounds = engine_bounds_term(*eng, spec.timeout_sec, vopts);
      decomposed = opts.incremental && !a.outputs().empty();
      if (decomposed) {
        // Each output cone is an independent obligation keyed on its own
        // pair of canonical cone hashes: an edit to one cone leaves every
        // other cone's key — and hence its cached verdict — untouched.
        pairs = verify::pair_cones(a, b);
        keys.reserve(pairs.size());
        for (const verify::ConePair& p : pairs) {
          keys.push_back(cone_key(kConeKeyTag, p, bounds));
        }
      } else {
        // The whole pair, keyed on both structural netlist hashes
        // (io/blif.h — name-independent, so re-exports of the same design
        // hit too, across restarts via a warm-started cache).
        verify::ConePair p;
        p.hash_a = io::structural_hash(a);
        p.hash_b = io::structural_hash(b);
        p.a = std::move(rc.net_a);
        p.b = std::move(rc.net_b);
        keys.push_back(cone_key(kBlifKeyTag, p, bounds));
        pairs.push_back(std::move(p));
      }
    } else {
      // The formal HASH synthesis step, shared across the whole service:
      // the goal term (f, (g, q)) determines the retiming theorem, so an
      // obligation that recurs — same circuit shape at the same width,
      // from any job — is proved once.
      auto ts = Clock::now();
      hash::CompiledCircuit comp = hash::compile(rc.rtl);
      hash::SplitCircuit split = hash::compile_split(rc.rtl, rc.cut);
      std::optional<circuit::Rtl> retimed;
      cache.get_or_prove_theorem(
          thy::mk_pair(split.f, thy::mk_pair(split.g, comp.q)),
          [&] {
            hash::FormalRetimeResult fr =
                hash::formal_retime(rc.rtl, rc.cut, comp, split);
            retimed = std::move(fr.retimed);
            return fr.theorem;
          },
          &r.theorem_cache_hit);
      r.synth_sec = seconds_since(ts);
      tv = Clock::now();
      if (spec.method == Method::Hash) {
        // The theorem *is* the verdict (LCF discipline: it cannot exist
        // unless the retiming is correct); on a theorem hit the job stays
        // netlist-free.
        r.completed = true;
        r.equivalent = true;
        r.verdict = VerdictClass::Equiv;
      } else {
        if (!retimed) retimed = hash::conventional_retime(rc.rtl, rc.cut);
        if (spec.method == Method::Match) {
          verify::RetimeMatchResult m =
              verify::verify_retiming(rc.rtl, *retimed, spec.seed);
          r.completed = true;
          r.equivalent = m.equivalent;
          r.verdict =
              m.equivalent ? VerdictClass::Equiv : VerdictClass::Nonequiv;
        } else {
          // A completed verdict is a pure function of (both compiled
          // circuits, engine, resource bounds); key on exactly that.
          hash::CompiledCircuit compb = hash::compile(*retimed);
          kernel::Term h_q_b = thy::mk_pair(compb.h, compb.q);
          keys.push_back(thy::mk_pair(
              thy::mk_pair(comp.h, thy::mk_pair(comp.q, h_q_b)),
              engine_bounds_term(*eng, spec.timeout_sec, vopts)));
          verify::ConePair p;
          p.a = circuit::bit_blast(rc.rtl);
          p.b = circuit::bit_blast(*retimed);
          r.ff = p.a.ff_count();
          r.gates = p.a.gate_count();
          pairs.push_back(std::move(p));
        }
      }
    }

    if (eng) {
      verify::StitchedVerdict sv =
          discharge(spec, vopts, pairs, keys, cache, r);
      if (decomposed) {
        r.cones = sv.cones;
        r.cone_hits = sv.hits;
        r.cones_reproved = sv.reproved;
      }
    }
    r.verify_sec = seconds_since(tv);
    r.ok = true;
  } catch (const std::exception& e) {
    // Failure isolation: a bad netlist, an illegal cut or an engine error
    // fails this job only; the batch continues.  A malformed spec or file
    // can never be fixed by retrying.
    r.ok = false;
    r.error = e.what();
    bool invalid = dynamic_cast<const ServiceError*>(&e) != nullptr ||
                   dynamic_cast<const io::IoError*>(&e) != nullptr;
    r.verdict = invalid ? VerdictClass::InvalidRequest : classify_exception(e);
  }
  r.total_sec = seconds_since(t0);
  return r;
}

VerifyService::VerifyService(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(opts)) {}

VerifyService::~VerifyService() {
  // Orphaned futures (submit without drain) must not outlive the pool.
  drain();
}

std::size_t VerifyService::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->batch_open) {
    impl_->batch_open = true;
    impl_->batch_t0 = Clock::now();
    impl_->batch_cpu0 = cpu_seconds();
  }
  std::size_t index = impl_->inflight.size();
  Impl* impl = impl_.get();
  impl_->inflight.push_back(impl_->pool.async(
      [impl, job = std::move(spec)] { return impl->run_job(job); }));
  return index;
}

std::vector<JobResult> VerifyService::drain() {
  std::vector<std::future<JobResult>> pending;
  bool window_open = false;
  Clock::time_point window_t0{};
  double window_cpu0 = 0.0;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    pending = std::move(impl_->inflight);
    impl_->inflight.clear();
    // Snapshot and close the timing window atomically with taking the
    // futures: a submit() racing with the blocking waits below then opens
    // a fresh window instead of having its start time misattributed to
    // this batch.
    window_open = impl_->batch_open;
    window_t0 = impl_->batch_t0;
    window_cpu0 = impl_->batch_cpu0;
    impl_->batch_open = false;
  }
  std::vector<JobResult> results;
  results.reserve(pending.size());
  for (std::future<JobResult>& fut : pending) results.push_back(fut.get());
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->jobs_total += results.size();
    for (const JobResult& r : results) {
      if (!r.ok) ++impl_->failed_total;
    }
    if (window_open) {
      impl_->wall_total += seconds_since(window_t0);
      impl_->cpu_total += cpu_seconds() - window_cpu0;
    }
  }
  return results;
}

std::vector<JobResult> VerifyService::run_batch(
    const std::vector<JobSpec>& specs) {
  for (const JobSpec& spec : specs) submit(spec);
  return drain();
}

CacheLoadResult VerifyService::load_cache(const std::string& path) {
  return impl_->backend->warm_start(path);
}

void VerifyService::save_cache(const std::string& path) const {
  impl_->backend->persist(path);
}

JobResult VerifyService::run_one(const JobSpec& spec) {
  double cpu0 = cpu_seconds();
  JobResult r = impl_->run_job(spec);
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->jobs_total;
  if (!r.ok) ++impl_->failed_total;
  impl_->wall_total += r.total_sec;
  impl_->cpu_total += cpu_seconds() - cpu0;
  return r;
}

JobResult VerifyService::run_scheduled(const JobSpec& spec) {
  JobResult r = impl_->run_job(spec);
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->jobs_total;
  if (!r.ok) ++impl_->failed_total;
  return r;
}

void VerifyService::record_window(double wall_sec, double cpu_sec) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->wall_total += wall_sec;
  impl_->cpu_total += cpu_sec;
}

void VerifyService::record_skipped(const JobResult& r) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->jobs_total;
  if (!r.ok) ++impl_->failed_total;
}

ServiceStats VerifyService::stats() const {
  ServiceStats st;
  BackendStats bs = impl_->backend->stats();
  st.theorems = bs.theorems;
  st.results = bs.verdicts;
  st.backend = impl_->backend->name();
  st.remote_failures = bs.remote_failures;
  st.degraded_ops = bs.degraded_ops;
  st.remote_round_trips = bs.remote_round_trips;
  std::lock_guard<std::mutex> lock(impl_->mu);
  st.jobs = impl_->jobs_total;
  st.failed = impl_->failed_total;
  st.wall_sec = impl_->wall_total;
  st.cpu_sec = impl_->cpu_total;
  return st;
}

CacheBackend& VerifyService::cache_backend() { return *impl_->backend; }

const CacheBackend& VerifyService::cache_backend() const {
  return *impl_->backend;
}

}  // namespace eda::service
