#include "harness.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "logic/bool_thms.h"
#include "theories/automata_theory.h"
#include "theories/pair_theory.h"
#include "theories/retiming_thm.h"

namespace perfbench {

using eda::service::JobResult;
using eda::service::VerdictClass;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Outcome judge(const JobInput& in, const JobResult& r) {
  if (!r.ok || (r.verdict != VerdictClass::Equiv &&
                r.verdict != VerdictClass::Nonequiv)) {
    return Outcome::Failed;
  }
  bool equiv = r.verdict == VerdictClass::Equiv;
  if (equiv != in.expect_equiv || r.equivalent != equiv) return Outcome::Wrong;
  if (!equiv && !in.expect_cex.empty() && r.counterexample != in.expect_cex) {
    return Outcome::Wrong;
  }
  return Outcome::Correct;
}

eda::service::JobSpec job_spec(const JobInput& in) {
  eda::service::JobSpec spec;
  spec.circuit = in.circuit;
  spec.method = eda::service::parse_method(in.method).value();
  spec.timeout_sec = in.timeout_sec;
  return spec;
}

RtlObligation resolve_rtl(const std::string& spec) {
  std::vector<int> n;
  std::string kind = spec.substr(0, spec.find(':'));
  if (kind == "iwls") {
    auto bench = eda::bench_gen::find_iwls_benchmark(spec.substr(5));
    if (!bench) throw std::invalid_argument("unknown circuit " + spec);
    return {std::move(bench->rtl), std::move(bench->cut)};
  }
  for (std::size_t at = spec.find(':'); at != std::string::npos;
       at = spec.find(':', at + 1)) {
    n.push_back(std::stoi(spec.substr(at + 1)));
  }
  if (kind == "fig2" && n.size() == 1) {
    auto f = eda::bench_gen::make_fig2(n[0]);
    return {std::move(f.rtl), std::move(f.good_cut)};
  }
  if (kind == "fig2deep" && n.size() == 2) {
    auto f = eda::bench_gen::make_fig2_deep(n[0], n[1]);
    eda::hash::Cut cut;
    cut.f_nodes = std::move(f.inc_nodes);
    return {std::move(f.rtl), std::move(cut)};
  }
  eda::bench_gen::BenchCircuit b;
  if (kind == "mult" && n.size() == 1) {
    b = eda::bench_gen::make_serial_multiplier(spec, n[0]);
  } else if (kind == "ctrl" && n.size() == 2) {
    b = eda::bench_gen::make_controller(spec, n[0], n[1]);
  } else if (kind == "pipe" && n.size() == 2) {
    b = eda::bench_gen::make_pipeline_alu(spec, n[0], n[1]);
  } else {
    throw std::invalid_argument("not an RTL circuit spec: " + spec);
  }
  return {std::move(b.rtl), std::move(b.cut)};
}

bool has_retiming_theorem(eda::service::VerifyService& svc,
                          const std::string& spec) {
  RtlObligation ob = resolve_rtl(spec);
  eda::hash::CompiledCircuit comp = eda::hash::compile(ob.rtl);
  eda::hash::SplitCircuit split = eda::hash::compile_split(ob.rtl, ob.cut);
  eda::kernel::Term goal = eda::thy::mk_pair(
      split.f, eda::thy::mk_pair(split.g, comp.q));
  std::optional<eda::kernel::Thm> thm =
      svc.cache_backend().lookup_theorem(goal, nullptr);
  if (!thm || !thm->hyps().empty()) return false;
  auto [vars, body] = eda::logic::strip_forall(thm->concl());
  if (vars.size() != 2 || !eda::kernel::is_eq(body)) return false;
  return eda::kernel::eq_lhs(body) ==
         eda::thy::mk_automaton(comp.h, comp.q, vars[0], vars[1]);
}

namespace {

/// Options of a fresh incremental client of the embedded daemon: one
/// stream and a one-connection pool, as one `eda_service --incremental`
/// process per job.
eda::service::ServiceOptions client_options(const std::string& server) {
  eda::service::ServiceOptions o;
  o.jobs = 1;
  o.incremental = true;
  o.cache.server = server;
  o.cache.remote_pool = 1;
  return o;
}

std::unique_ptr<eda::service::CacheServer> start_daemon(
    const std::string& listen, const std::string& cache_file) {
  eda::service::CacheServerOptions so;
  so.listen = listen;
  so.cache_file = cache_file;
  auto daemon = std::make_unique<eda::service::CacheServer>(so);
  daemon->start();
  return daemon;
}

}  // namespace

Harness::Harness(Workload w, const std::string& dir,
                 const std::string& warm_file, unsigned threads) {
  eda::thy::retiming_thm();  // theory init
  if (w == Workload::HashRetime || w == Workload::PosthocCheck) {
    eda::service::ServiceOptions o;
    o.jobs = threads;
    service_ = std::make_unique<eda::service::VerifyService>(o);
    return;
  }
  server_ = "unix:" + dir + "/cached.sock";
  std::remove(server_.c_str() + 5);
  daemon_ = start_daemon(server_,
                         w == Workload::EditReplay ? warm_file : std::string());
}

Harness::~Harness() {
  service_.reset();
  if (daemon_) {
    daemon_->stop();
    std::remove(server_.c_str() + 5);
  }
}

JobResult Harness::run(const JobInput& in) {
  if (service_) return service_->run_one(job_spec(in));
  eda::service::VerifyService client(client_options(server_));
  return client.run_one(job_spec(in));
}

bool build_warm_store(const std::string& dir, const std::string& warm_file) {
  std::vector<JobInput> bases = load_jobs(dir + "/base.tsv");
  std::string listen = "unix:" + dir + "/prep.sock";
  std::remove(listen.c_str() + 5);
  std::remove(warm_file.c_str());
  auto daemon = start_daemon(listen, warm_file);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < bases.size(); i = next++) {
        eda::service::VerifyService client(client_options(listen));
        JobResult r = client.run_one(job_spec(bases[i]));
        if (judge(bases[i], r) != Outcome::Correct) {
          std::fprintf(stderr, "perfbench: base pair %s: %s %s\n",
                       bases[i].circuit.c_str(),
                       eda::service::verdict_class_name(r.verdict),
                       r.error.c_str());
          ok = false;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  daemon->stop();  // final snapshot: the warm store
  std::remove(listen.c_str() + 5);
  return ok;
}

}  // namespace perfbench
