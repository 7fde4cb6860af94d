#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "kernel/terms.h"

namespace eda::kernel {

class Decoder;

/// A theorem `A |- c` of the logic.  Following the LCF discipline the
/// constructor is private: the *only* ways to obtain a Thm are the primitive
/// inference rules below, definitional extension / axiom installation via
/// Signature, the explicitly-tagged Oracle, and reloading a checksummed
/// cache file this binary previously saved (kernel/serialize.h — the
/// persistent-cache analogue of a proof assistant reloading a checked
/// theory file; oracle tags round-trip, so provenance is preserved).
/// Consequently any Thm value in a running program is a genuine
/// derivation — this is the entire correctness argument of the HASH
/// approach (paper, section III.B).
///
/// Hypotheses are kept sorted and duplicate-free under alpha-conversion.
/// Every theorem carries the set of oracle tags it (transitively) depends
/// on; a theorem with an empty tag set was derived purely from the rules,
/// axioms and definitions.
class Thm {
 public:
  const std::vector<Term>& hyps() const { return hyps_; }
  const Term& concl() const { return concl_; }
  const std::set<std::string>& oracles() const { return oracles_; }
  bool is_pure() const { return oracles_.empty(); }

  std::string to_string() const;

  /// Number of theorems constructed since program start — every primitive
  /// rule application, definition, axiom installation and oracle admission
  /// increments it (copies do not).  This backs the paper's cost model
  /// quantitatively: a compound synthesis step's rule count is the sum of
  /// its parts plus a small constant for the transitivity application.
  static std::uint64_t theorems_constructed();

  // --- Primitive inference rules ------------------------------------------

  /// REFL:  |- t = t
  static Thm refl(const Term& t);
  /// TRANS:  A |- a = b,  B |- b = c   ==>   A u B |- a = c
  static Thm trans(const Thm& ab, const Thm& bc);
  /// MK_COMB:  A |- f = g,  B |- x = y   ==>   A u B |- f x = g y
  static Thm mk_comb(const Thm& fg, const Thm& xy);
  /// ABS:  A |- l = r   ==>   A |- (\v. l) = (\v. r)   (v not free in A)
  static Thm abs(const Term& v, const Thm& th);
  /// BETA:  |- (\v. b) a = b[a/v]   (capture-avoiding)
  static Thm beta(const Term& redex);
  /// ASSUME:  {p} |- p   (p must be boolean)
  static Thm assume(const Term& p);
  /// EQ_MP:  A |- p = q,  B |- p   ==>   A u B |- q
  static Thm eq_mp(const Thm& pq, const Thm& p);
  /// DEDUCT_ANTISYM:  A |- p,  B |- q  ==>  (A-{q}) u (B-{p}) |- p = q
  static Thm deduct_antisym(const Thm& p, const Thm& q);
  /// INST_TYPE: instantiate type variables throughout.
  static Thm inst_type(const TypeSubst& theta, const Thm& th);
  /// INST: instantiate free term variables throughout (capture-avoiding).
  static Thm inst(const TermSubst& theta, const Thm& th);
  /// ALPHA:  |- a = b   when a and b are alpha-equivalent.
  static Thm alpha(const Term& a, const Term& b);

 private:
  Thm(std::vector<Term> hyps, Term concl, std::set<std::string> oracles);

  std::vector<Term> hyps_;
  Term concl_;
  std::set<std::string> oracles_;

  static std::vector<Term> hyp_union(const std::vector<Term>& a,
                                     const std::vector<Term>& b);
  static std::vector<Term> hyp_remove(const std::vector<Term>& hs,
                                      const Term& t);
  static std::set<std::string> tag_union(const Thm& a, const Thm& b);

  friend class Signature;
  friend class Oracle;
  friend class Decoder;  ///< serialize.h cache reload (see class comment)
};

/// The single sanctioned escape hatch: admit a formula as a theorem with a
/// provenance *tag* that is propagated to every theorem derived from it.
/// The reproduction uses exactly one oracle, `NUM_COMPUTE`, for ground
/// numeral arithmetic (see theories/numeral.*); RETIMING_THM is proved
/// without it and the test suite asserts `is_pure()` on it.
class Oracle {
 public:
  static Thm admit(const std::string& tag, const Term& concl);

  /// While a Log is alive, every formula its thread admits is appended to
  /// it (a Log opened inside another takes over until it ends), so a test
  /// or an audit can recheck each admission on its own.
  class Log {
   public:
    Log();
    ~Log();
    Log(const Log&) = delete;
    Log& operator=(const Log&) = delete;

    const std::vector<Term>& admitted() const { return admitted_; }

   private:
    friend class Oracle;
    std::vector<Term> admitted_;
    Log* outer_;
  };
};

}  // namespace eda::kernel
