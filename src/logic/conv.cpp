#include "logic/conv.h"

#include "kernel/terms.h"

namespace eda::logic {

using kernel::eq_rhs;
using kernel::is_eq;

Thm all_conv(const Term& t) { return Thm::refl(t); }

Thm no_conv(const Term& t) {
  throw ConvError("no_conv: " + t.to_string());
}

Thm beta_conv(const Term& t) {
  if (!t.is_comb() || !t.rator().is_abs()) {
    throw ConvError("beta_conv: not a redex");
  }
  return Thm::beta(t);
}

Conv thenc(Conv a, Conv b) {
  return [a = std::move(a), b = std::move(b)](const Term& t) {
    Thm th1 = a(t);
    Thm th2 = b(eq_rhs(th1.concl()));
    return Thm::trans(th1, th2);
  };
}

Conv orelsec(Conv a, Conv b) {
  return [a = std::move(a), b = std::move(b)](const Term& t) {
    try {
      return a(t);
    } catch (const KernelError&) {
      return b(t);
    }
  };
}

Conv tryc(Conv a) { return orelsec(std::move(a), all_conv); }

Conv repeatc(Conv a) {
  return [a = std::move(a)](const Term& t) {
    Thm acc = Thm::refl(t);
    int steps = 0;
    for (;;) {
      Term cur = eq_rhs(acc.concl());
      Thm step = Thm::refl(cur);
      bool applied = false;
      try {
        step = a(cur);
        applied = true;
      } catch (const KernelError&) {
        // done
      }
      if (!applied || eq_rhs(step.concl()) == cur) return acc;
      acc = Thm::trans(acc, step);
      if (++steps > kMaxRewriteSteps) {
        throw RewriteLimitError("repeatc: rewrite limit exceeded");
      }
    }
  };
}

Conv changedc(Conv a) {
  return [a = std::move(a)](const Term& t) {
    Thm th = a(t);
    if (eq_rhs(th.concl()) == t) {
      throw ConvError("changedc: conversion did not change the term");
    }
    return th;
  };
}

Conv rand_conv(Conv c) {
  return [c = std::move(c)](const Term& t) {
    if (!t.is_comb()) throw ConvError("rand_conv: not an application");
    return Thm::mk_comb(Thm::refl(t.rator()), c(t.rand()));
  };
}

Conv rator_conv(Conv c) {
  return [c = std::move(c)](const Term& t) {
    if (!t.is_comb()) throw ConvError("rator_conv: not an application");
    return Thm::mk_comb(c(t.rator()), Thm::refl(t.rand()));
  };
}

Conv abs_conv(Conv c) {
  return [c = std::move(c)](const Term& t) {
    if (!t.is_abs()) throw ConvError("abs_conv: not an abstraction");
    return Thm::abs(t.bound_var(), c(t.body()));
  };
}

Conv sub_conv(Conv c) {
  return [c = std::move(c)](const Term& t) {
    switch (t.kind()) {
      case Term::Kind::Comb:
        return Thm::mk_comb(tryc(c)(t.rator()), tryc(c)(t.rand()));
      case Term::Kind::Abs:
        return abs_conv(tryc(c))(t);
      default:
        return Thm::refl(t);
    }
  };
}

Conv binder_conv(Conv c) { return rand_conv(abs_conv(std::move(c))); }

namespace {

Thm once_depth_rec(const Conv& c, const Term& t) {
  try {
    return c(t);
  } catch (const KernelError&) {
    // fall through to children
  }
  switch (t.kind()) {
    case Term::Kind::Comb: {
      Thm f = once_depth_rec(c, t.rator());
      Thm x = once_depth_rec(c, t.rand());
      return Thm::mk_comb(f, x);
    }
    case Term::Kind::Abs: {
      Thm b = once_depth_rec(c, t.body());
      return Thm::abs(t.bound_var(), b);
    }
    default:
      return Thm::refl(t);
  }
}

Thm top_depth_rec(const Conv& c, const Term& t, int& budget);

Thm top_depth_children(const Conv& c, const Term& t, int& budget) {
  switch (t.kind()) {
    case Term::Kind::Comb: {
      Thm f = top_depth_rec(c, t.rator(), budget);
      Thm x = top_depth_rec(c, t.rand(), budget);
      return Thm::mk_comb(f, x);
    }
    case Term::Kind::Abs: {
      Thm b = top_depth_rec(c, t.body(), budget);
      return Thm::abs(t.bound_var(), b);
    }
    default:
      return Thm::refl(t);
  }
}

Thm top_depth_rec(const Conv& c, const Term& t, int& budget) {
  // 1. repeat c at the node itself
  Thm acc = Thm::refl(t);
  for (;;) {
    Term cur = eq_rhs(acc.concl());
    bool applied = false;
    try {
      Thm step = c(cur);
      if (!(eq_rhs(step.concl()) == cur)) {
        if (--budget < 0) {
          throw RewriteLimitError("top_depth_conv: rewrite limit exceeded");
        }
        acc = Thm::trans(acc, step);
        applied = true;
      }
    } catch (const RewriteLimitError&) {
      throw;
    } catch (const KernelError&) {
      // c does not apply here
    }
    if (!applied) break;
  }
  // 2. descend into children
  Term cur = eq_rhs(acc.concl());
  Thm kids = top_depth_children(c, cur, budget);
  bool kids_changed = !(eq_rhs(kids.concl()) == cur);
  if (kids_changed) acc = Thm::trans(acc, kids);
  // 3. if the children changed, the node may now be reducible again
  if (kids_changed) {
    Term cur2 = eq_rhs(acc.concl());
    try {
      Thm step = c(cur2);
      if (!(eq_rhs(step.concl()) == cur2)) {
        if (--budget < 0) {
          throw RewriteLimitError("top_depth_conv: rewrite limit exceeded");
        }
        acc = Thm::trans(acc, step);
        Thm rest = top_depth_rec(c, eq_rhs(acc.concl()), budget);
        if (!(eq_rhs(rest.concl()) == eq_rhs(acc.concl()))) {
          acc = Thm::trans(acc, rest);
        }
      }
    } catch (const RewriteLimitError&) {
      throw;
    } catch (const KernelError&) {
      // done
    }
  }
  return acc;
}

}  // namespace

Conv once_depth_conv(Conv c) {
  return [c = std::move(c)](const Term& t) { return once_depth_rec(c, t); };
}

Conv top_depth_conv(Conv c) {
  return [c = std::move(c)](const Term& t) {
    int budget = kMaxRewriteSteps;
    return top_depth_rec(c, t, budget);
  };
}

Thm beta_norm_conv(const Term& t) { return top_depth_conv(beta_conv)(t); }

Thm conv_rule(const Conv& c, const Thm& th) {
  Thm eq = c(th.concl());
  return Thm::eq_mp(eq, th);
}

Thm conv_concl_rhs(const Conv& c, const Thm& th) {
  if (!is_eq(th.concl())) {
    throw ConvError("conv_concl_rhs: conclusion is not an equation");
  }
  Thm eq = c(eq_rhs(th.concl()));
  return Thm::trans(th, eq);
}

}  // namespace eda::logic
