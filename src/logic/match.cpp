#include "logic/match.h"

#include <vector>

namespace eda::logic {

namespace {

struct Matcher {
  TypeSubst types;
  // Bindings keyed by the original (pre-instantiation) pattern variable.
  std::vector<std::pair<Term, Term>> bindings;
  // Stack of (pattern binder, concrete binder) pairs.
  std::vector<std::pair<Term, Term>> env;

  static std::ptrdiff_t binder_index(
      const Term& v, const std::vector<std::pair<Term, Term>>& env,
      bool pattern_side) {
    for (std::size_t i = env.size(); i-- > 0;) {
      const Term& b = pattern_side ? env[i].first : env[i].second;
      if (b.name() == v.name() && b.type() == v.type()) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  }

  bool concrete_mentions_bound(const Term& t) const {
    if (env.empty()) return false;
    const kernel::FreeVars& fv = kernel::free_vars_set(t);
    for (const auto& [pv, cv] : env) {
      if (fv.contains(cv)) return true;
    }
    return false;
  }

  bool match(const Term& p, const Term& t) {
    switch (p.kind()) {
      case Term::Kind::Var: {
        std::ptrdiff_t pi = binder_index(p, env, true);
        if (pi >= 0) {
          // Bound pattern variable: must match the corresponding binder.
          if (!t.is_var()) return false;
          std::ptrdiff_t ti = binder_index(t, env, false);
          return ti == pi;
        }
        // Free pattern variable: instantiable.
        if (!kernel::type_match(p.type(), t.type(), types)) return false;
        if (concrete_mentions_bound(t)) return false;
        for (const auto& [key, img] : bindings) {
          if (key == p) return img == t;
        }
        bindings.emplace_back(p, t);
        return true;
      }
      case Term::Kind::Const:
        return t.is_const() && t.name() == p.name() &&
               kernel::type_match(p.type(), t.type(), types);
      case Term::Kind::Comb:
        return t.is_comb() && match(p.rator(), t.rator()) &&
               match(p.rand(), t.rand());
      case Term::Kind::Abs: {
        if (!t.is_abs()) return false;
        if (!kernel::type_match(p.bound_var().type(), t.bound_var().type(),
                                types)) {
          return false;
        }
        env.emplace_back(p.bound_var(), t.bound_var());
        bool ok = match(p.body(), t.body());
        env.pop_back();
        return ok;
      }
    }
    return false;
  }
};

}  // namespace

std::optional<MatchResult> term_match(const Term& pattern,
                                      const Term& concrete) {
  Matcher m;
  if (!m.match(pattern, concrete)) return std::nullopt;
  MatchResult out;
  out.types = m.types;
  for (const auto& [key, img] : m.bindings) {
    Term key2 =
        Term::var(key.name(), kernel::type_subst(out.types, key.type()));
    if (key2.type() != img.type()) return std::nullopt;  // defensive
    auto [it, inserted] = out.terms.emplace(key2, img);
    if (!inserted && !(it->second == img)) return std::nullopt;
  }
  return out;
}

}  // namespace eda::logic
