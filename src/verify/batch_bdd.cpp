#include "verify/batch_bdd.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "verify/sis_fsm.h"
#include "verify/symbolic.h"

namespace eda::verify {

using bdd::BddId;
using bdd::BddManager;

namespace {

using Clock = std::chrono::steady_clock;

/// A manager whose tables have room for more nodes than this is freed when
/// its lease ends instead of kept for the thread's next batch, so one
/// Table II blow-up does not stay resident in a worker thread.  At the cap
/// an idle manager holds 8 MB: 2^17 nodes of 16 bytes, 2^18 unique-table
/// slots of 4 and as many 20-byte cache entries.  posthoc_check's
/// problems (about 4.5 K nodes) and the largest cone_cold batch (about
/// 120 K) stay under it.
constexpr std::size_t kMaxIdleNodes = std::size_t{1} << 17;

/// The thread's idle manager, kept between check_batch calls.
thread_local std::unique_ptr<BddManager> t_idle_manager;

/// check_batch's manager: the thread's idle one, reset for this call, or a
/// new one when the thread has none (its first call, or a lease already
/// holds it).  The lease hands it back when the call ends.
class ManagerLease {
 public:
  ManagerLease(int num_vars, std::size_t node_limit)
      : mgr_(std::move(t_idle_manager)) {
    if (mgr_) {
      mgr_->reset(num_vars, node_limit);
    } else {
      mgr_ = std::make_unique<BddManager>(num_vars, node_limit);
    }
  }
  ~ManagerLease() {
    if (mgr_->node_capacity() <= kMaxIdleNodes) {
      t_idle_manager = std::move(mgr_);
    }
  }
  ManagerLease(const ManagerLease&) = delete;
  ManagerLease& operator=(const ManagerLease&) = delete;

  BddManager& operator*() { return *mgr_; }

 private:
  std::unique_ptr<BddManager> mgr_;
};

/// Per-task traversal state, one record per live BDD job.  Everything
/// node-shaped lives in the shared manager, everything task-shaped here.
struct Task {
  const CheckJob* job = nullptr;
  std::size_t index = 0;  // position in check_batch's input
  Product p;
  std::vector<BddId> partitions;  // TR conjuncts; single entry for smv
  /// The early-quantification schedule: `last[v]` is the last partition
  /// mentioning quantified variable v (the first when none does; -1 for
  /// next-state variables), `quantify_at[k]` the variables that go after
  /// partition k.
  std::vector<int> last;
  std::vector<std::vector<int>> quantify_at;
  BddId reached = 0, frontier = 0;
  bool done = false;
  bool poisoned = false;  // shared pool blew up under this task
  VerifyResult res;
};

/// Bucket the quantified variables by the partition they go after,
/// ascending within each bucket.
std::vector<std::vector<int>> bucket(const std::vector<int>& last,
                                     std::size_t parts) {
  std::vector<std::vector<int>> at(parts);
  for (std::size_t v = 0; v < last.size() && parts > 0; ++v) {
    if (last[v] >= 0) {
      at[static_cast<std::size_t>(last[v])].push_back(static_cast<int>(v));
    }
  }
  return at;
}

void build_task(BddManager& mgr, const ProductLayout& L, Task& t) {
  t.p = build_product(mgr, L, *t.job->a, *t.job->b);
  for (const SymbolicMachine* m : {&t.p.a, &t.p.b}) {
    for (std::size_t i = 0; i < m->next_fn.size(); ++i) {
      t.partitions.push_back(mgr.lxnor(mgr.var(m->next_vars[i]),
                                       m->next_fn[i]));
    }
  }
  if (t.job->engine == Engine::Smv) {
    BddId tr = mgr.true_bdd();
    for (BddId conjunct : t.partitions) tr = mgr.land(tr, conjunct);
    t.partitions = {tr};
  }
  t.last.assign(static_cast<std::size_t>(L.total()), -1);
  for (int v : t.p.quantify) t.last[static_cast<std::size_t>(v)] = 0;
  for (std::size_t k = 0; k < t.partitions.size(); ++k) {
    for (int v : mgr.support(t.partitions[k])) {
      int& l = t.last[static_cast<std::size_t>(v)];
      if (l >= 0) l = static_cast<int>(k);
    }
  }
  t.quantify_at = bucket(t.last, t.partitions.size());
  t.reached = t.frontier = mgr.land(t.p.a.init, t.p.b.init);
}

/// Conjoin the frontier with the partitions and then `deps`, in order,
/// quantifying each variable right after the last conjunct that mentions
/// it.  Dependency conjuncts go last, so the variables they mention move
/// behind them; without any, the task's own schedule applies unchanged.
BddId image(BddManager& mgr, const Task& t, BddId frontier,
            const std::vector<BddId>& deps) {
  std::vector<std::vector<int>> moved;
  if (!deps.empty()) {
    std::vector<int> last = t.last;
    for (std::size_t j = 0; j < deps.size(); ++j) {
      for (int v : mgr.support(deps[j])) {
        int& l = last[static_cast<std::size_t>(v)];
        if (l >= 0) l = static_cast<int>(t.partitions.size() + j);
      }
    }
    moved = bucket(last, t.partitions.size() + deps.size());
  }
  const std::vector<std::vector<int>>& at =
      deps.empty() ? t.quantify_at : moved;
  const std::size_t np = t.partitions.size();
  BddId acc = frontier;
  for (std::size_t k = 0; k < at.size(); ++k) {
    BddId part = k < np ? t.partitions[k] : deps[k - np];
    acc = at[k].empty() ? mgr.land(acc, part)
                        : mgr.and_exists(acc, part, at[k]);
  }
  return acc;
}

/// One fixpoint iteration for one task.
void step_task(BddManager& mgr, const ProductLayout& L, Task& t) {
  ++t.res.iterations;
  t.res.peak = std::max(t.res.peak, mgr.node_table_size());
  if (t.res.seconds > t.job->opts.timeout_sec) {
    t.done = true;  // completed stays false: timed out
    t.res.failure = FailureKind::Timeout;
    return;
  }

  BddId frontier = t.frontier;
  std::vector<BddId> deps;
  if (t.job->engine == Engine::EijkPlus) {
    // A B-side state variable whose cofactors are disjoint on the
    // frontier is a function of the rest: image in the reduced space with
    // the dependency as an extra conjunct.
    for (int v : mgr.support(frontier)) {
      if (L.role[static_cast<std::size_t>(v)] != VarRole::BState) continue;
      const BddId on = mgr.cofactor(frontier, v, true);
      const BddId off = mgr.cofactor(frontier, v, false);
      if (mgr.land(on, off) == mgr.false_bdd()) {
        deps.push_back(mgr.lxnor(mgr.var(v), on));
        frontier = mgr.lor(on, off);
      }
    }
  }

  BddId img = mgr.rename(image(mgr, t, frontier, deps), L.next_to_present);
  BddId next_reached = mgr.lor(t.reached, img);
  if (next_reached == t.reached) {
    t.res.peak = std::max(t.res.peak, mgr.node_table_size());
    t.res.completed = true;
    t.res.equivalent =
        mgr.land(t.reached, t.p.miscompare) == mgr.false_bdd();
    t.done = true;
    return;
  }
  t.frontier = img;
  t.reached = next_reached;
}

/// Run one phase of task `t` (its build or one image step) under what is
/// left of the task's time budget, and charge the phase's time to the
/// task whatever its outcome, so `res.seconds` counts only the task's own
/// phases and batch timeouts mean the same thing as per-job timeouts.  A
/// blown budget is the task's own; a pool blow-up marks it poisoned, since
/// the shared pool may be to blame.
template <typename Phase>
void run_phase(BddManager& mgr, Task& t, Phase phase) {
  const Clock::time_point tick = Clock::now();
  const double left = t.job->opts.timeout_sec - t.res.seconds;
  Clock::time_point deadline = Clock::time_point::max();
  if (left < 1e9) {  // a longer budget is none (and would overflow)
    deadline = tick + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(left));
  }
  mgr.set_deadline(deadline);
  try {
    phase();
  } catch (const bdd::BddTimeout&) {
    t.done = true;  // completed stays false: timed out
    t.res.failure = FailureKind::Timeout;
  } catch (const bdd::BddError&) {
    t.done = true;  // interface mismatch or pool blowup
    t.poisoned = true;
    t.res.failure = FailureKind::ResourceExhausted;
  }
  t.res.seconds += std::chrono::duration<double>(Clock::now() - tick).count();
}

}  // namespace

std::vector<VerifyResult> check_batch(const std::vector<CheckJob>& jobs) {
  std::vector<VerifyResult> out(jobs.size());
  std::vector<Task> tasks;
  std::vector<NetlistPair> pairs;
  std::size_t max_limit = 0, sum_limit = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CheckJob& job = jobs[i];
    if (job.engine == Engine::SisFsm) {
      out[i] = sis_fsm_check(*job.a, *job.b, job.opts);
      continue;
    }
    pairs.emplace_back(job.a, job.b);
    max_limit = std::max(max_limit, job.opts.node_limit);
    sum_limit += job.opts.node_limit;
    tasks.emplace_back();
    tasks.back().job = &job;
    tasks.back().index = i;
  }
  if (tasks.empty()) return out;
  // The pool holds every task's nodes at once (nodes are freed only
  // between batches), so one job's limit is far too small a budget for a
  // big batch: size it to the whole batch's aggregate budget, capped at 8x
  // the largest job.  Tasks the capped pool still can't finish are re-run
  // alone below, so the cap costs performance, never verdicts.  Every task
  // shares one variable order, which is what makes the shared pool pay:
  // identical logic in different cones interns to identical nodes.
  const ProductLayout layout = product_layout(pairs);
  {
    ManagerLease lease(std::max(1, layout.total()),
                       std::min(sum_limit, 8 * max_limit));
    BddManager& mgr = *lease;
    for (Task& t : tasks) {
      run_phase(mgr, t, [&] { build_task(mgr, layout, t); });
    }

    // Round-robin one image step per live task per round.  Short tasks
    // retire early and stop paying; long tasks keep the warmed apply
    // cache.
    bool any_live = true;
    while (any_live) {
      any_live = false;
      for (Task& t : tasks) {
        if (t.done) continue;
        run_phase(mgr, t, [&] { step_task(mgr, layout, t); });
        if (!t.done) any_live = true;
      }
    }
  }
  for (Task& t : tasks) {
    // A task the SHARED pool starved gets its own node budget, as a batch
    // of one; the lease has ended, so the re-run resets the same warm
    // manager.  Alone, the pool already was its own, so the failure
    // stands.
    if (t.poisoned && tasks.size() > 1) {
      double spent = t.res.seconds;
      t.res = check_batch({*t.job}).front();
      t.res.seconds += spent;
    }
    out[t.index] = t.res;
  }
  return out;
}

}  // namespace eda::verify
