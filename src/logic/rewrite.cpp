#include "logic/rewrite.h"

namespace eda::logic {

using kernel::eq_lhs;
using kernel::eq_rhs;
using kernel::is_eq;
using kernel::Term;
using kernel::Thm;

Conv rewr_conv(const Thm& eq_thm) {
  // Specialize the rule once at conversion-build time, not per target term;
  // rewr_conv results are routinely cached (static Convs in the hash layer)
  // and applied to thousands of nodes.
  Thm spec = spec_all(eq_thm);
  return [th = std::move(spec)](const Term& t) {
    if (!is_eq(th.concl())) {
      throw ConvError("rewr_conv: theorem is not an equation: " +
                      th.concl().to_string());
    }
    Term lhs = eq_lhs(th.concl());
    auto m = term_match(lhs, t);
    if (!m) {
      // No term in the message: top_depth_conv and orelsec catch and drop
      // this at nearly every node they visit, and printing a hash-consed
      // term costs time proportional to its expanded tree.
      throw ConvError("rewr_conv: no match");
    }
    Thm inst = th;
    if (!m->types.empty()) inst = Thm::inst_type(m->types, inst);
    if (!m->terms.empty()) inst = Thm::inst(m->terms, inst);
    Term new_lhs = eq_lhs(inst.concl());
    if (!(new_lhs == t)) {
      throw ConvError("rewr_conv: instantiation mismatch");
    }
    // Re-anchor on the exact (alpha-variant) input term so callers can
    // chain with TRANS.
    return Thm::trans(Thm::alpha(t, new_lhs), inst);
  };
}

Conv rewrites_conv(const std::vector<Thm>& thms) {
  std::vector<Conv> convs;
  convs.reserve(thms.size());
  for (const Thm& th : thms) convs.push_back(rewr_conv(th));
  return [convs](const Term& t) -> Thm {
    for (const Conv& c : convs) {
      try {
        return c(t);
      } catch (const ConvError&) {
        continue;
      }
    }
    throw ConvError("rewrites_conv: no rule applies");
  };
}

Conv pure_rewrite_conv(const std::vector<Thm>& thms) {
  return top_depth_conv(rewrites_conv(thms));
}

Conv rewrite_conv(const std::vector<Thm>& thms) {
  Conv step = orelsec(rewrites_conv(thms), beta_conv);
  return top_depth_conv(step);
}

Thm rewrite_rule(const std::vector<Thm>& thms, const Thm& th) {
  return conv_rule(rewrite_conv(thms), th);
}

Thm pure_rewrite_rule(const std::vector<Thm>& thms, const Thm& th) {
  return conv_rule(pure_rewrite_conv(thms), th);
}

Conv once_rewrite_conv(const std::vector<Thm>& thms) {
  return once_depth_conv(rewrites_conv(thms));
}

}  // namespace eda::logic
