#pragma once

#include <functional>

#include "kernel/thm.h"

namespace eda::logic {

using kernel::KernelError;
using kernel::Term;
using kernel::Thm;

/// A conversion maps a term `t` to a theorem `A |- t = t'`.  Conversions are
/// the workhorse of formal synthesis: every rewriting pass of a synthesis
/// step is a conversion, so its output is correct by construction.
using Conv = std::function<Thm(const Term&)>;

/// Thrown by a conversion that does not apply (HOL's `failwith`); strategy
/// combinators catch it.
class ConvError : public KernelError {
 public:
  explicit ConvError(const std::string& what) : KernelError(what) {}
};

/// Thrown by repeatc and top_depth_conv when a rewrite system runs past
/// kMaxRewriteSteps.  It is a ConvError, so a combinator that catches
/// declines (orelsec, tryc) catches it too; top_depth_conv tells it from a
/// decline by type and aborts the whole conversion.
class RewriteLimitError : public ConvError {
 public:
  explicit RewriteLimitError(const std::string& what) : ConvError(what) {}
};

// --- Basic conversions -----------------------------------------------------

/// `|- t = t` (always succeeds).
Thm all_conv(const Term& t);
/// Always fails.
Thm no_conv(const Term& t);
/// Beta-reduce a top-level redex.
Thm beta_conv(const Term& t);
/// Beta-reduce every redex, innermost-out, until none remain.
Thm beta_norm_conv(const Term& t);

// --- Combinators -----------------------------------------------------------

Conv thenc(Conv a, Conv b);
Conv orelsec(Conv a, Conv b);
Conv tryc(Conv a);
/// Apply repeatedly until failure (zero applications yield REFL).
Conv repeatc(Conv a);
/// Fail unless the conversion changed the term.
Conv changedc(Conv a);

/// Apply under the operand / operator of an application, or the body of an
/// abstraction.
Conv rand_conv(Conv c);
Conv rator_conv(Conv c);
Conv abs_conv(Conv c);
/// Both sides of an application; body of an abstraction; identity on atoms.
Conv sub_conv(Conv c);
/// For a binder application `B (\x. t)`, apply under the abstraction body.
Conv binder_conv(Conv c);

/// Single top-down sweep: apply `c` (repeatedly) at every subterm, visiting
/// parents before children.  Does not revisit.
Conv once_depth_conv(Conv c);
/// Full normalization: repeat top-down sweeps until fixpoint (bounded; see
/// kMaxRewriteSteps).
Conv top_depth_conv(Conv c);

/// Rewrite a theorem's conclusion with a conversion: from `A |- p` and
/// `B |- p = q` obtain `A u B |- q`.
Thm conv_rule(const Conv& c, const Thm& th);
/// Apply a conversion to the left / right side of an equational conclusion.
Thm conv_concl_rhs(const Conv& c, const Thm& th);

/// Hard bound on rewrite iterations; exceeding it throws RewriteLimitError
/// (guards against looping rewrite systems).
inline constexpr int kMaxRewriteSteps = 100000;

}  // namespace eda::logic
