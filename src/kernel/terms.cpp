#include "kernel/terms.h"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <unordered_map>
#include <vector>

namespace eda::kernel {

namespace {

using detail::TermNode;

std::size_t combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::size_t ptr_hash(const void* p) {
  return std::hash<const void*>{}(p);
}

/// The intern-table key: the low 32 bits of a structural hash, the width
/// TermNode stores.  The slot index of any table under 2^32 slots is the
/// same as the full hash's.
std::uint32_t intern_key(std::size_t h) {
  return static_cast<std::uint32_t>(h);
}

static_assert(sizeof(TermNode) <= 48,
              "an interned term node is permanent: keep it at 48 bytes");

/// The global term interner; intentionally leaked like the type interner so
/// node pointers stay valid memoisation keys for the process lifetime.
/// Thread-safe: sharded, lock-free lookups, per-shard insert mutex
/// (see intern.h).
detail::InternTable<TermNode>& interner() {
  static auto* in = new detail::InternTable<TermNode>();
  return *in;
}

}  // namespace

// --- Hashing (alpha-invariant) --------------------------------------------
//
// Bound variables hash by de-Bruijn index so that alpha-equivalent terms get
// equal hashes, matching operator==.  Comb nodes reuse child hashes; Abs
// nodes re-traverse their body with the binder pushed onto the environment
// (abstractions are rare and shallow in circuit terms, so this stays cheap).
// Thanks to interning every hash is computed once per distinct node, ever.

static std::size_t hash_name_ty(std::size_t tag, const std::string& name,
                                const Type& ty) {
  return combine(combine(tag, std::hash<std::string>{}(name)), ty.hash());
}

namespace {

// Alpha-invariant hash with an explicit binder environment and a
// per-binder-frame memo (see definition below).
std::size_t hash_with_env(const Term& t, std::vector<Term>& binders,
                          std::map<const void*, std::size_t>& memo);

}  // namespace

namespace {

/// Var and Const share one path: the name is stored in the shard's arena
/// just before its node, and the node points at it.
const TermNode* intern_leaf(Term::Kind kind, std::size_t tag, std::string name,
                            Type ty) {
  std::size_t h = hash_name_ty(tag, name, ty);
  std::uint32_t key = intern_key(h);
  return interner().intern(
      key,
      [&](const TermNode* c) {
        return c->kind == kind && c->ty == ty && *c->name == name;
      },
      [&](detail::Arena& arena) {
        bool poly = ty.has_vars();
        const std::string* stored = arena.create<std::string>(std::move(name));
        return arena.create<TermNode>(kind, stored, std::move(ty), h, key,
                                      poly);
      });
}

}  // namespace

Term Term::var(std::string name, Type ty) {
  if (name.empty()) throw KernelError("Term::var: empty name");
  return Term(intern_leaf(Kind::Var, 0xB1, std::move(name), std::move(ty)));
}

Term Term::constant(std::string name, Type ty) {
  if (name.empty()) throw KernelError("Term::constant: empty name");
  return Term(intern_leaf(Kind::Const, 0xC0, std::move(name), std::move(ty)));
}

Term Term::comb(Term f, Term x) {
  if (!is_fun_ty(f.type())) {
    throw KernelError("Term::comb: operator is not a function: " +
                      f.to_string() + " : " + f.type().to_string());
  }
  if (dom_ty(f.type()) != x.type()) {
    throw KernelError("Term::comb: type mismatch applying " + f.to_string() +
                      " : " + f.type().to_string() + " to " + x.to_string() +
                      " : " + x.type().to_string());
  }
  std::uint32_t key = intern_key(
      combine(combine(0xAF7, ptr_hash(f.node_)), ptr_hash(x.node_)));
  const TermNode* n = interner().intern(
      key,
      [&](const TermNode* c) {
        return c->kind == Kind::Comb && c->a == f.node_ && c->b == x.node_;
      },
      [&](detail::Arena& arena) {
        std::size_t h = combine(combine(0xAF, f.hash()), x.hash());
        return arena.create<TermNode>(Kind::Comb, cod_ty(f.type()), f.node_,
                                      x.node_, h, key,
                                      f.node_->poly || x.node_->poly);
      });
  return Term(n);
}

Term Term::abs(Term v, Term body) {
  if (!v.is_var()) throw KernelError("Term::abs: binder must be a variable");
  std::uint32_t key = intern_key(
      combine(combine(0xAB5, ptr_hash(v.node_)), ptr_hash(body.node_)));
  const TermNode* n = interner().intern(
      key,
      [&](const TermNode* c) {
        return c->kind == Kind::Abs && c->a == v.node_ && c->b == body.node_;
      },
      [&](detail::Arena& arena) {
        // Alpha-invariant hash for the whole abstraction (bound occurrences
        // hash by de-Bruijn index), keeping hashes consistent with
        // operator==.
        std::vector<Term> binders{v};
        std::map<const void*, std::size_t> memo;
        std::size_t hb = hash_with_env(body, binders, memo);
        std::size_t h = combine(combine(0xAB, v.type().hash()), hb);
        return arena.create<TermNode>(Kind::Abs, fun_ty(v.type(), body.type()),
                                      v.node_, body.node_, h, key,
                                      v.node_->poly || body.node_->poly);
      });
  return Term(n);
}

namespace {
/// Bytes of every published free-variable view; a statistic, so relaxed.
std::atomic<std::size_t> g_free_var_bytes{0};
}  // namespace

detail::InternStats Term::intern_stats() {
  auto& in = interner();
  return {in.size(), in.hits(), in.arena_bytes(),
          g_free_var_bytes.load(std::memory_order_relaxed)};
}

namespace {

// The memo is valid for one fixed binder stack; crossing an Abs switches
// to a fresh memo for the body (the de-Bruijn indices below differ).  On
// binder-free shared structure — the common case in compiled circuits —
// every DAG node is hashed once.
std::size_t hash_with_env(const Term& t, std::vector<Term>& binders,
                          std::map<const void*, std::size_t>& memo) {
  if (auto hit = memo.find(t.node_id()); hit != memo.end()) {
    return hit->second;
  }
  std::size_t h = 0;
  switch (t.kind()) {
    case Term::Kind::Var: {
      h = hash_name_ty(0xB1, t.name(), t.type());
      for (std::size_t i = binders.size(); i-- > 0;) {
        // Interning makes "same name and type" node identity.
        if (binders[i].identical(t)) {
          h = combine(combine(0xB0, binders.size() - 1 - i),
                      t.type().hash());
          break;
        }
      }
      break;
    }
    case Term::Kind::Const:
      h = hash_name_ty(0xC0, t.name(), t.type());
      break;
    case Term::Kind::Comb:
      h = combine(combine(0xAF, hash_with_env(t.rator(), binders, memo)),
                  hash_with_env(t.rand(), binders, memo));
      break;
    case Term::Kind::Abs: {
      binders.push_back(t.bound_var());
      std::map<const void*, std::size_t> fresh;
      std::size_t hb = hash_with_env(t.body(), binders, fresh);
      binders.pop_back();
      h = combine(combine(0xAB, t.bound_var().type().hash()), hb);
      break;
    }
  }
  memo.emplace(t.node_id(), h);
  return h;
}

}  // namespace

const std::string& Term::name() const {
  if (!is_var() && !is_const()) {
    throw KernelError("Term::name: not a variable or constant");
  }
  return *node_->name;
}

Term Term::rator() const {
  if (!is_comb()) throw KernelError("Term::rator: not an application");
  return Term::from(node_->a);
}

Term Term::rand() const {
  if (!is_comb()) throw KernelError("Term::rand: not an application");
  return Term::from(node_->b);
}

Term Term::bound_var() const {
  if (!is_abs()) throw KernelError("Term::bound_var: not an abstraction");
  return Term::from(node_->a);
}

Term Term::body() const {
  if (!is_abs()) throw KernelError("Term::body: not an abstraction");
  return Term::from(node_->b);
}

// --- Alpha comparison ------------------------------------------------------

bool Term::operator==(const Term& other) const {
  // Hash-consing: structurally identical terms are one node, so only
  // alpha-equivalent terms with differently-spelt binders take the walk.
  if (node_ == other.node_) return true;
  if (node_->hash != other.node_->hash) return false;
  return compare(*this, other) == 0;
}

namespace {

// Innermost binder index for a variable occurrence.  Interning collapses
// equal variables to one node, so binder matching (with shadowing
// semantics) is pointer identity.  `side` selects binder column 0 or 1.
std::ptrdiff_t binder_index(const Term& v,
                            const std::vector<std::array<Term, 2>>& env,
                            int side) {
  for (std::size_t i = env.size(); i-- > 0;) {
    if (env[i][static_cast<std::size_t>(side)].identical(v)) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

// `asym` counts enclosing binder pairs whose two columns differ.  When it
// is zero, every pending binder maps a variable to itself on both sides, so
// pointer-identical subterms are alpha-equal and the walk can stop — this
// keeps comparison linear in the term *DAG*, not its tree unfolding (and
// with hash-consing the identical() fast path fires for every structurally
// equal pair, however it was built).
int alpha_compare_env(const Term& a, const Term& b,
                      std::vector<std::array<Term, 2>>& env, int asym) {
  if (asym == 0 && a.identical(b)) return 0;
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case Term::Kind::Var: {
      std::ptrdiff_t ia = binder_index(a, env, 0);
      std::ptrdiff_t ib = binder_index(b, env, 1);
      if (ia != ib) return ia < ib ? -1 : 1;
      if (ia >= 0) return Type::compare(a.type(), b.type());
      if (int c = a.name().compare(b.name()); c != 0) return c < 0 ? -1 : 1;
      return Type::compare(a.type(), b.type());
    }
    case Term::Kind::Const: {
      if (int c = a.name().compare(b.name()); c != 0) return c < 0 ? -1 : 1;
      return Type::compare(a.type(), b.type());
    }
    case Term::Kind::Comb: {
      if (int c = alpha_compare_env(a.rator(), b.rator(), env, asym); c != 0)
        return c;
      return alpha_compare_env(a.rand(), b.rand(), env, asym);
    }
    case Term::Kind::Abs: {
      Term va = a.bound_var(), vb = b.bound_var();
      if (int c = Type::compare(va.type(), vb.type()); c != 0) return c;
      env.push_back({va, vb});
      bool same = va.identical(vb);
      int c = alpha_compare_env(a.body(), b.body(), env, asym + (same ? 0 : 1));
      env.pop_back();
      return c;
    }
  }
  return 0;  // unreachable
}

}  // namespace

int Term::compare(const Term& a, const Term& b) {
  if (a.node_ == b.node_) return 0;
  std::vector<std::array<Term, 2>> env;
  return alpha_compare_env(a, b, env, 0);
}

std::string Term::to_string() const {
  switch (kind()) {
    case Kind::Var:
    case Kind::Const:
      return *node_->name;
    case Kind::Comb: {
      Term f = Term::from(node_->a), x = Term::from(node_->b);
      std::string fs = f.to_string();
      if (f.is_abs()) fs = "(" + fs + ")";
      std::string xs = x.to_string();
      if (x.is_comb() || x.is_abs()) xs = "(" + xs + ")";
      return fs + " " + xs;
    }
    case Kind::Abs: {
      Term v = Term::from(node_->a), b = Term::from(node_->b);
      return "\\" + v.to_string() + ". " + b.to_string();
    }
  }
  return "?";
}

// --- Free variables --------------------------------------------------------

// Free variables are a per-node attribute (fv(\v. b) = fv(b) \ {v} with
// interned binder identity), so the view is computed bottom-up once per
// interned node and cached on the node forever.  Every layer above the
// kernel — substitution pruning, the ABS side condition, the backward
// synthesis engine — hits this cache.
//
// Views are flat arrays in Term::compare order (the order std::set<Term>
// iterates in), so a union is one merge.  Most nodes add no free variable
// to what one child already has; such a node publishes that child's view
// instead of a copy, and closed nodes publish the one empty view.
//
// Concurrency: the cache slot is an atomic pointer published with a
// release CAS.  Racing threads may compute the view redundantly; exactly
// one publication wins and a loser frees only a view it allocated, so
// readers only ever observe null or a fully-built, permanent view.

namespace {

bool term_less(const Term& a, const Term& b) {
  return Term::compare(a, b) < 0;
}

std::size_t view_bytes(std::size_t n) {
  return sizeof(FreeVars) + n * sizeof(Term);
}

}  // namespace

FreeVars* FreeVars::make(std::size_t n) {
  return new (::operator new(view_bytes(n))) FreeVars(n);
}

const FreeVars& FreeVars::none() {
  static const FreeVars* empty = make(0);
  return *empty;
}

bool FreeVars::contains(const Term& v) const {
  const Term* it = std::lower_bound(begin(), end(), v, term_less);
  return it != end() && Term::compare(*it, v) == 0;
}

const FreeVars& free_vars_set(const Term& t) {
  const TermNode* n = t.node_;
  if (const FreeVars* cached = n->fv.load(std::memory_order_acquire)) {
    return *cached;
  }
  const FreeVars* out = &FreeVars::none();
  FreeVars* fresh = nullptr;  // set when `out` is allocated here
  switch (n->kind) {
    case Term::Kind::Var:
      fresh = FreeVars::make(1);
      new (fresh->items()) Term(t);
      out = fresh;
      break;
    case Term::Kind::Const:
      break;
    case Term::Kind::Comb: {
      const FreeVars& fa = free_vars_set(Term::from(n->a));
      const FreeVars& fb = free_vars_set(Term::from(n->b));
      std::vector<Term> merged;
      merged.reserve(fa.size() + fb.size());
      std::set_union(fa.begin(), fa.end(), fb.begin(), fb.end(),
                     std::back_inserter(merged), term_less);
      if (merged.size() == fa.size()) {
        out = &fa;
      } else if (merged.size() == fb.size()) {
        out = &fb;
      } else {
        fresh = FreeVars::make(merged.size());
        std::uninitialized_copy(merged.begin(), merged.end(),
                                fresh->items());
        out = fresh;
      }
      break;
    }
    case Term::Kind::Abs: {
      const FreeVars& fb = free_vars_set(Term::from(n->b));
      const Term v = Term::from(n->a);
      if (!fb.contains(v)) {
        out = &fb;
      } else if (fb.size() > 1) {
        fresh = FreeVars::make(fb.size() - 1);
        Term* dst = fresh->items();
        for (const Term& u : fb) {
          if (!u.identical(v)) new (dst++) Term(u);
        }
        out = fresh;
      }
      break;
    }
  }
  const FreeVars* expected = nullptr;
  if (!n->fv.compare_exchange_strong(expected, out,
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
    ::operator delete(fresh);
    return *expected;
  }
  if (fresh != nullptr) {
    g_free_var_bytes.fetch_add(view_bytes(fresh->size()),
                               std::memory_order_relaxed);
  }
  return *out;
}

void collect_free_vars(const Term& t, std::set<Term>& out) {
  const FreeVars& fv = free_vars_set(t);
  out.insert(fv.begin(), fv.end());
}

bool is_free_in(const Term& v, const Term& t) {
  return free_vars_set(t).contains(v);
}

namespace {
// Type variables are independent of the binder environment, so one visited
// set keeps the walk linear in the term DAG.  Subterms whose `poly` flag is
// clear are skipped outright.
void collect_term_type_vars_rec(const Term& t, std::set<std::string>& out,
                                std::set<const void*>& visited) {
  if (!t.has_type_vars()) return;
  if (!visited.insert(t.node_id()).second) return;
  switch (t.kind()) {
    case Term::Kind::Var:
    case Term::Kind::Const:
      t.type().collect_vars(out);
      return;
    case Term::Kind::Comb:
      collect_term_type_vars_rec(t.rator(), out, visited);
      collect_term_type_vars_rec(t.rand(), out, visited);
      return;
    case Term::Kind::Abs:
      collect_term_type_vars_rec(t.bound_var(), out, visited);
      collect_term_type_vars_rec(t.body(), out, visited);
      return;
  }
}
}  // namespace

void collect_term_type_vars(const Term& t, std::set<std::string>& out) {
  std::set<const void*> visited;
  collect_term_type_vars_rec(t, out, visited);
}

// --- Substitution ----------------------------------------------------------

Term variant(const std::set<Term>& avoid, const Term& v) {
  if (!v.is_var()) throw KernelError("variant: not a variable");
  std::set<std::string> names;
  for (const Term& a : avoid) names.insert(a.name());
  std::string name = v.name();
  while (names.count(name) > 0) name += "'";
  if (name == v.name()) return v;
  return Term::var(name, v.type());
}

namespace {

/// True when no key of `theta` occurs free in `t` — the subtree can be
/// returned unchanged.  The cached per-node free-variable sets make this an
/// O(|theta| log |fv|) test, which prunes substitution to the spine that
/// actually mentions the substituted variables.
bool subst_irrelevant(const TermSubst& theta, const Term& t) {
  const FreeVars& fv = free_vars_set(t);
  for (const auto& [key, img] : theta) {
    (void)img;
    if (fv.contains(key)) return false;
  }
  return true;
}

/// Memoised substitution core.  The memo is keyed on interned node identity
/// and is valid only for one fixed theta: whenever an Abs case builds a
/// *different* substitution for its body (shadowing removal, pruning or
/// renaming), that body is processed with a fresh memo.  Under heavily
/// shared binder-free structure — exactly what the circuit compiler and
/// the instantiation rules produce — each DAG node is visited once.
Term vsubst_memo(const TermSubst& theta, const Term& t,
                 std::map<const void*, Term>& memo) {
  // Memo first: revisits of shared DAG nodes must not re-pay the
  // O(|theta|) relevance scan.
  if (auto hit = memo.find(t.node_id()); hit != memo.end()) {
    return hit->second;
  }
  if (subst_irrelevant(theta, t)) return t;
  auto remember = [&](Term out) {
    memo.emplace(t.node_id(), out);
    return out;
  };
  switch (t.kind()) {
    case Term::Kind::Var: {
      auto it = theta.find(t);
      if (it == theta.end()) return t;
      if (it->second.type() != t.type()) {
        throw KernelError("vsubst: type mismatch substituting for " +
                          t.to_string());
      }
      return it->second;
    }
    case Term::Kind::Const:
      return t;
    case Term::Kind::Comb: {
      Term f = vsubst_memo(theta, t.rator(), memo);
      Term x = vsubst_memo(theta, t.rand(), memo);
      if (f.identical(t.rator()) && x.identical(t.rand())) return remember(t);
      return remember(Term::comb(f, x));
    }
    case Term::Kind::Abs: {
      const Term v = t.bound_var();
      // Remove any binding of the bound variable itself and drop bindings
      // whose key is not free in the body (cheap via the cached fv sets;
      // also avoids spurious capture detection).
      const FreeVars& body_fv = free_vars_set(t.body());
      TermSubst inner;
      for (const auto& [key, img] : theta) {
        if (!key.identical(v) && body_fv.contains(key)) {
          inner.emplace(key, img);
        }
      }
      if (inner.empty()) return remember(t);
      // Capture check: does v occur free in any image?
      bool capture = false;
      for (const auto& [key, img] : inner) {
        (void)key;
        if (is_free_in(v, img)) {
          capture = true;
          break;
        }
      }
      if (!capture) {
        std::map<const void*, Term> fresh;
        Term b = vsubst_memo(inner, t.body(), fresh);
        if (b.identical(t.body())) return remember(t);
        return remember(Term::abs(v, b));
      }
      // Rename the binder away from everything in sight.
      std::set<Term> avoid(body_fv.begin(), body_fv.end());
      for (const auto& [key, img] : inner) {
        (void)key;
        collect_free_vars(img, avoid);
      }
      Term v2 = variant(avoid, v);
      TermSubst rename;
      rename.emplace(v, v2);
      std::map<const void*, Term> fresh1;
      Term body2 = vsubst_memo(rename, t.body(), fresh1);
      std::map<const void*, Term> fresh2;
      return remember(Term::abs(v2, vsubst_memo(inner, body2, fresh2)));
    }
  }
  return t;  // unreachable
}

}  // namespace

Term vsubst(const TermSubst& theta, const Term& t) {
  if (theta.empty()) return t;
  std::map<const void*, Term> memo;
  return vsubst_memo(theta, t, memo);
}

namespace {

/// Memoised core of type_inst.  Type instantiation is context-free (the
/// per-Abs clash analysis depends only on the subterm), so one memo keyed
/// on node identity is sound for the whole call and keeps the walk linear
/// in the term DAG.  Ground subterms (poly flag clear) are returned
/// unchanged without any walk.
Term type_inst_memo(const TypeSubst& theta, const Term& t,
                    std::map<const void*, Term>& memo) {
  if (!t.has_type_vars()) return t;
  if (auto hit = memo.find(t.node_id()); hit != memo.end()) {
    return hit->second;
  }
  auto remember = [&](Term out) {
    memo.emplace(t.node_id(), out);
    return out;
  };
  switch (t.kind()) {
    case Term::Kind::Var:
      return remember(Term::var(t.name(), type_subst(theta, t.type())));
    case Term::Kind::Const:
      return remember(Term::constant(t.name(), type_subst(theta, t.type())));
    case Term::Kind::Comb:
      return remember(Term::comb(type_inst_memo(theta, t.rator(), memo),
                                 type_inst_memo(theta, t.rand(), memo)));
    case Term::Kind::Abs: {
      Term v = t.bound_var();
      Term v2 = Term::var(v.name(), type_subst(theta, v.type()));
      // Capture check: a free variable of the body, distinct from the
      // binder, may coincide with the instantiated binder.
      const FreeVars& body_fv = free_vars_set(t.body());
      bool clash = false;
      for (const Term& u : body_fv) {
        if (u == v) continue;
        Term u2 = Term::var(u.name(), type_subst(theta, u.type()));
        if (u2 == v2) {
          clash = true;
          break;
        }
      }
      if (!clash) {
        return remember(Term::abs(v2, type_inst_memo(theta, t.body(), memo)));
      }
      // Rename the binder (at its *original* type) first, then instantiate.
      std::set<Term> avoid(body_fv.begin(), body_fv.end());
      Term v_fresh = variant(avoid, v);
      TermSubst rename;
      rename.emplace(v, v_fresh);
      Term body2 = vsubst(rename, t.body());
      return remember(
          Term::abs(Term::var(v_fresh.name(), type_subst(theta, v.type())),
                    type_inst_memo(theta, body2, memo)));
    }
  }
  return t;  // unreachable
}

}  // namespace

Term type_inst(const TypeSubst& theta, const Term& t) {
  if (theta.empty() || !t.has_type_vars()) return t;
  std::map<const void*, Term> memo;
  return type_inst_memo(theta, t, memo);
}

// --- Equality helpers ------------------------------------------------------

Term eq_const(const Type& ty) {
  // mk_eq is the single hottest constructor in the prover (every REFL,
  // TRANS, hypothesis and circuit equation goes through it); skipping the
  // three intern probes (which hash "=" and rebuild the fun-type spine)
  // matters.  The cache slot lives on the interned TypeNode itself, so a
  // hit is one acquire load — no map, no lock, no TLS.  Racing threads
  // compute the same canonical node and store the same pointer, so a plain
  // atomic store (no CAS) publishes safely.
  const detail::TypeNode* tn = ty.node_;
  if (const void* hit = tn->eq_const.load(std::memory_order_acquire)) {
    return Term::from(static_cast<const TermNode*>(hit));
  }
  Term c = Term::constant("=", fun_ty(ty, fun_ty(ty, bool_ty())));
  tn->eq_const.store(c.node_, std::memory_order_release);
  return c;
}

Term mk_eq(const Term& a, const Term& b) {
  if (a.type() != b.type()) {
    throw KernelError("mk_eq: sides have different types: " +
                      a.type().to_string() + " vs " + b.type().to_string());
  }
  return Term::comb(Term::comb(eq_const(a.type()), a), b);
}

bool is_eq(const Term& t) {
  return t.is_comb() && t.rator().is_comb() && t.rator().rator().is_const() &&
         t.rator().rator().name() == "=";
}

Term eq_lhs(const Term& t) {
  if (!is_eq(t)) throw KernelError("eq_lhs: not an equality: " + t.to_string());
  return t.rator().rand();
}

Term eq_rhs(const Term& t) {
  if (!is_eq(t)) throw KernelError("eq_rhs: not an equality: " + t.to_string());
  return t.rand();
}

std::pair<Term, std::vector<Term>> strip_comb(const Term& t) {
  std::vector<Term> args;
  Term f = t;
  while (f.is_comb()) {
    args.push_back(f.rand());
    f = f.rator();
  }
  std::reverse(args.begin(), args.end());
  return {f, args};
}

Term list_comb(Term f, const std::vector<Term>& args) {
  for (const Term& a : args) f = Term::comb(std::move(f), a);
  return f;
}

}  // namespace eda::kernel
