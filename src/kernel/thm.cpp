#include "kernel/thm.h"

#include <algorithm>
#include <atomic>

namespace eda::kernel {

namespace {
// Relaxed atomic: the counter is a statistic (the paper's rule-count cost
// model), not a synchronisation point, and must not serialise parallel
// proof replay.  Incremented with a plain load+store rather than a locked
// RMW — Thm construction is the hottest path in the prover, and losing the
// odd increment under contention is acceptable for a statistic (exact in
// single-threaded runs, approximate otherwise; same policy as the intern
// tables' hit counters).
std::atomic<std::uint64_t> g_theorem_count{0};

/// The innermost live Oracle::Log of this thread, if any.
thread_local Oracle::Log* t_oracle_log = nullptr;
}  // namespace

std::uint64_t Thm::theorems_constructed() {
  return g_theorem_count.load(std::memory_order_relaxed);
}

Thm::Thm(std::vector<Term> hyps, Term concl, std::set<std::string> oracles)
    : hyps_(std::move(hyps)),
      concl_(std::move(concl)),
      oracles_(std::move(oracles)) {
  g_theorem_count.store(g_theorem_count.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
}

std::vector<Term> Thm::hyp_union(const std::vector<Term>& a,
                                 const std::vector<Term>& b) {
  std::vector<Term> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out),
                 [](const Term& x, const Term& y) { return x < y; });
  return out;
}

std::vector<Term> Thm::hyp_remove(const std::vector<Term>& hs, const Term& t) {
  std::vector<Term> out;
  out.reserve(hs.size());
  for (const Term& h : hs) {
    if (!(h == t)) out.push_back(h);
  }
  return out;
}

std::set<std::string> Thm::tag_union(const Thm& a, const Thm& b) {
  std::set<std::string> tags = a.oracles_;
  tags.insert(b.oracles_.begin(), b.oracles_.end());
  return tags;
}

std::string Thm::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < hyps_.size(); ++i) {
    if (i > 0) s += ", ";
    s += hyps_[i].to_string();
  }
  if (!hyps_.empty()) s += " ";
  s += "|- " + concl_.to_string();
  if (!oracles_.empty()) {
    s += "   [oracles:";
    for (const std::string& t : oracles_) s += " " + t;
    s += "]";
  }
  return s;
}

Thm Thm::refl(const Term& t) { return Thm({}, mk_eq(t, t), {}); }

Thm Thm::trans(const Thm& ab, const Thm& bc) {
  if (!is_eq(ab.concl_) || !is_eq(bc.concl_)) {
    throw KernelError("TRANS: conclusions must be equations");
  }
  if (!(eq_rhs(ab.concl_) == eq_lhs(bc.concl_))) {
    throw KernelError("TRANS: middle terms differ:\n  " +
                      eq_rhs(ab.concl_).to_string() + "\n  " +
                      eq_lhs(bc.concl_).to_string());
  }
  return Thm(hyp_union(ab.hyps_, bc.hyps_),
             mk_eq(eq_lhs(ab.concl_), eq_rhs(bc.concl_)), tag_union(ab, bc));
}

Thm Thm::mk_comb(const Thm& fg, const Thm& xy) {
  if (!is_eq(fg.concl_) || !is_eq(xy.concl_)) {
    throw KernelError("MK_COMB: conclusions must be equations");
  }
  Term f = eq_lhs(fg.concl_), g = eq_rhs(fg.concl_);
  Term x = eq_lhs(xy.concl_), y = eq_rhs(xy.concl_);
  // Term::comb performs the type check.
  return Thm(hyp_union(fg.hyps_, xy.hyps_),
             mk_eq(Term::comb(f, x), Term::comb(g, y)), tag_union(fg, xy));
}

Thm Thm::abs(const Term& v, const Thm& th) {
  if (!v.is_var()) throw KernelError("ABS: binder must be a variable");
  if (!is_eq(th.concl_)) throw KernelError("ABS: conclusion must be equation");
  for (const Term& h : th.hyps_) {
    if (is_free_in(v, h)) {
      throw KernelError("ABS: variable " + v.to_string() +
                        " is free in a hypothesis");
    }
  }
  return Thm(th.hyps_,
             mk_eq(Term::abs(v, eq_lhs(th.concl_)),
                   Term::abs(v, eq_rhs(th.concl_))),
             th.oracles_);
}

Thm Thm::beta(const Term& redex) {
  if (!redex.is_comb() || !redex.rator().is_abs()) {
    throw KernelError("BETA: not a beta-redex: " + redex.to_string());
  }
  Term lam = redex.rator();
  Term arg = redex.rand();
  TermSubst theta;
  theta.emplace(lam.bound_var(), arg);
  return Thm({}, mk_eq(redex, vsubst(theta, lam.body())), {});
}

Thm Thm::assume(const Term& p) {
  if (p.type() != bool_ty()) {
    throw KernelError("ASSUME: term is not boolean: " + p.to_string());
  }
  return Thm({p}, p, {});
}

Thm Thm::eq_mp(const Thm& pq, const Thm& p) {
  if (!is_eq(pq.concl_)) throw KernelError("EQ_MP: first arg not an equation");
  if (!(eq_lhs(pq.concl_) == p.concl_)) {
    throw KernelError("EQ_MP: mismatch:\n  " + eq_lhs(pq.concl_).to_string() +
                      "\n  " + p.concl_.to_string());
  }
  return Thm(hyp_union(pq.hyps_, p.hyps_), eq_rhs(pq.concl_),
             tag_union(pq, p));
}

Thm Thm::deduct_antisym(const Thm& p, const Thm& q) {
  std::vector<Term> hyps =
      hyp_union(hyp_remove(p.hyps_, q.concl_), hyp_remove(q.hyps_, p.concl_));
  return Thm(std::move(hyps), mk_eq(p.concl_, q.concl_), tag_union(p, q));
}

Thm Thm::inst_type(const TypeSubst& theta, const Thm& th) {
  // Identity instantiation (empty theta, or a fully ground theorem — the
  // common case once monomorphic rules are cached) is a no-op.
  if (theta.empty()) return th;
  bool ground = !th.concl_.has_type_vars();
  for (const Term& h : th.hyps_) ground = ground && !h.has_type_vars();
  if (ground) return th;
  std::vector<Term> hyps;
  hyps.reserve(th.hyps_.size());
  for (const Term& h : th.hyps_) hyps.push_back(type_inst(theta, h));
  std::sort(hyps.begin(), hyps.end());
  hyps.erase(std::unique(hyps.begin(), hyps.end(),
                         [](const Term& a, const Term& b) { return a == b; }),
             hyps.end());
  return Thm(std::move(hyps), type_inst(theta, th.concl_), th.oracles_);
}

Thm Thm::inst(const TermSubst& theta, const Thm& th) {
  for (const auto& [key, img] : theta) {
    if (!key.is_var()) throw KernelError("INST: key is not a variable");
    if (key.type() != img.type()) {
      throw KernelError("INST: type mismatch for " + key.to_string());
    }
  }
  if (theta.empty()) return th;
  std::vector<Term> hyps;
  hyps.reserve(th.hyps_.size());
  for (const Term& h : th.hyps_) hyps.push_back(vsubst(theta, h));
  std::sort(hyps.begin(), hyps.end());
  hyps.erase(std::unique(hyps.begin(), hyps.end(),
                         [](const Term& a, const Term& b) { return a == b; }),
             hyps.end());
  return Thm(std::move(hyps), vsubst(theta, th.concl_), th.oracles_);
}

Thm Thm::alpha(const Term& a, const Term& b) {
  if (!(a == b)) {
    throw KernelError("ALPHA: terms are not alpha-equivalent:\n  " +
                      a.to_string() + "\n  " + b.to_string());
  }
  return Thm({}, mk_eq(a, b), {});
}

Thm Oracle::admit(const std::string& tag, const Term& concl) {
  if (concl.type() != bool_ty()) {
    throw KernelError("Oracle::admit: formula is not boolean");
  }
  if (tag.empty()) throw KernelError("Oracle::admit: empty tag");
  if (t_oracle_log != nullptr) t_oracle_log->admitted_.push_back(concl);
  return Thm({}, concl, {tag});
}

Oracle::Log::Log() : outer_(t_oracle_log) { t_oracle_log = this; }

Oracle::Log::~Log() { t_oracle_log = outer_; }

}  // namespace eda::kernel
