#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "kernel/types.h"

namespace eda::kernel {

class Term;
class FreeVars;

namespace detail {
struct TermNode;
}  // namespace detail

/// A term of higher-order logic: variable, constant instance, application
/// or lambda abstraction.  Immutable, shared representation; all
/// constructors type-check and throw KernelError on violation, so every
/// `Term` value is well-typed by construction.
///
/// Terms are *hash-consed*: each constructor interns its node, so
/// structurally identical terms (same names, same binder spellings) are one
/// node and `identical()` is the equality fast path.  Alpha-equivalent but
/// differently-spelt abstractions (`\x. x` vs `\y. y`) remain distinct
/// nodes that compare equal via `operator==`.  Interned nodes live in a
/// permanent arena, so `node_id()` is a valid memoisation key for the whole
/// process, and per-node attributes (alpha-invariant hash, free-variable
/// set, type-variable flag) are computed once per node, ever.
class Term {
 public:
  enum class Kind : std::uint8_t { Var, Const, Comb, Abs };

  /// A variable `name : ty`.
  static Term var(std::string name, Type ty);
  /// An instance of a constant at a (possibly specialized) type.  The kernel
  /// does not consult the signature here; `Signature::mk_const` is the
  /// checked entry point used by everything above the kernel.
  static Term constant(std::string name, Type ty);
  /// Application `f x`; requires `f : a -> b`, `x : a`.
  static Term comb(Term f, Term x);
  /// Abstraction `\v. body`; `v` must be a Var.
  static Term abs(Term v, Term body);

  Kind kind() const;
  bool is_var() const { return kind() == Kind::Var; }
  bool is_const() const { return kind() == Kind::Const; }
  bool is_comb() const { return kind() == Kind::Comb; }
  bool is_abs() const { return kind() == Kind::Abs; }

  /// Name of a Var or Const (throws otherwise).
  const std::string& name() const;
  /// Type of the term (always available).
  const Type& type() const;

  /// Operator / operand of a Comb (throw otherwise).
  Term rator() const;
  Term rand() const;
  /// Bound variable / body of an Abs (throw otherwise).
  Term bound_var() const;
  Term body() const;

  /// Alpha-equivalence (`\x. x` equals `\y. y`).  Interning makes the
  /// structural case a pointer comparison; only differently-spelt binders
  /// fall through to the alpha walk.
  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  /// Total order modulo alpha-equivalence; used to keep hypothesis sets
  /// canonical inside theorems.
  static int compare(const Term& a, const Term& b);
  bool operator<(const Term& other) const { return compare(*this, other) < 0; }

  /// Alpha-invariant hash, precomputed at intern time.
  std::size_t hash() const;

  /// Pointer identity of the interned representation: true iff the terms
  /// are structurally identical (hash-consing guarantees the converse too).
  /// Comparison exploits this to stay linear in the *DAG* size of heavily
  /// shared terms — the kernel's cost model ("pointers, no copying", paper
  /// section III.A) depends on it.
  bool identical(const Term& other) const { return node_ == other.node_; }

  /// Stable identity of the interned node, usable as a memoisation key for
  /// the lifetime of the process (interned nodes are never freed).
  const void* node_id() const { return node_; }

  /// O(1): does any type inside the term mention a type variable?
  /// (Precomputed at intern time; type instantiation of a ground term is
  /// the identity.)
  bool has_type_vars() const;

  /// Render with minimal fixity knowledge (full printer lives in printer.h).
  std::string to_string() const;

  /// Interning statistics (distinct nodes, table hits, arena bytes).
  static detail::InternStats intern_stats();

 private:
  explicit Term(const detail::TermNode* node) : node_(node) {}
  static Term from(const detail::TermNode* n) { return Term(n); }
  const detail::TermNode* node_;

  friend const FreeVars& free_vars_set(const Term& t);
  friend Term eq_const(const Type& ty);
};

/// The free variables of one interned node: its free Var terms, sorted in
/// `Term::compare` order without duplicates, in one flat array.  A view is
/// built once per node and is permanent, like the node.  Nodes share
/// views: a node whose free variables are exactly a child's points at the
/// child's view, and every closed node points at one empty view.
class FreeVars {
 public:
  const Term* begin() const { return items(); }
  const Term* end() const { return items() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Binary search in `Term::compare` order.
  bool contains(const Term& v) const;
  std::size_t count(const Term& v) const { return contains(v) ? 1 : 0; }

 private:
  explicit FreeVars(std::size_t n) : size_(n) {}
  /// A view with room for `n` items in one allocation (items unset).
  static FreeVars* make(std::size_t n);
  /// The one view every closed node shares.
  static const FreeVars& none();
  // The items follow the header in the same allocation.
  Term* items() { return reinterpret_cast<Term*>(this + 1); }
  const Term* items() const { return reinterpret_cast<const Term*>(this + 1); }

  std::size_t size_;

  friend const FreeVars& free_vars_set(const Term& t);
};

namespace detail {

/// The interned representation of a Term, 48 bytes.  Construction happens
/// only inside the four Term constructors, which guarantee one node per
/// structure.  The kind, the type-variable flag and a 32-bit structural
/// hash share the first word; a Var or Const keeps its name beside the node
/// in the same arena and points at it from the slot a Comb or Abs uses for
/// its first child.
struct TermNode {
  /// Var / Const.
  TermNode(Term::Kind kind_, const std::string* name_, Type ty_,
           std::size_t hash_, std::uint32_t shash_, bool poly_)
      : shash(shash_),
        kind(kind_),
        poly(poly_),
        ty(std::move(ty_)),
        name(name_),
        b(nullptr),
        hash(hash_) {}
  /// Comb / Abs.
  TermNode(Term::Kind kind_, Type ty_, const TermNode* a_, const TermNode* b_,
           std::size_t hash_, std::uint32_t shash_, bool poly_)
      : shash(shash_),
        kind(kind_),
        poly(poly_),
        ty(std::move(ty_)),
        a(a_),
        b(b_),
        hash(hash_) {}

  std::uint32_t shash;  ///< structural hash (the intern-table key)
  Term::Kind kind;
  bool poly;  ///< some type inside the term has type variables
  Type ty;    ///< type of the whole term
  union {
    const TermNode* a;        ///< Comb: rator; Abs: binder
    const std::string* name;  ///< Var / Const
  };
  const TermNode* b;  ///< Comb: rand; Abs: body; null for Var / Const
  std::size_t hash;   ///< alpha-invariant hash
  /// Lazily built free-variable view (permanent, like the node itself).
  /// Published with a release CAS so concurrent readers either see null
  /// (and compute) or a fully-built view; a losing computation is
  /// discarded (free_vars_set in terms.cpp).
  mutable std::atomic<const FreeVars*> fv{nullptr};
};

}  // namespace detail

inline Term::Kind Term::kind() const { return node_->kind; }
inline const Type& Term::type() const { return node_->ty; }
inline std::size_t Term::hash() const { return node_->hash; }
inline bool Term::has_type_vars() const { return node_->poly; }

/// Term-for-variable substitution.  Keys must be Var terms; the map is
/// ordered by Term::compare.
using TermSubst = std::map<Term, Term>;

/// The free variables of `t`, cached on the interned node: the first call
/// per node computes the view, every later call (for the process lifetime)
/// returns the same reference.  This is the workhorse behind
/// `collect_free_vars` / `is_free_in` / substitution pruning.
const FreeVars& free_vars_set(const Term& t);

/// Free variables of a term, added to `out`.
void collect_free_vars(const Term& t, std::set<Term>& out);
bool is_free_in(const Term& v, const Term& t);

/// All type variables occurring anywhere in the term.
void collect_term_type_vars(const Term& t, std::set<std::string>& out);

/// Capture-avoiding substitution of terms for free variables.  Every key
/// must be a Var whose type equals its image's type; bound variables are
/// renamed as needed.
Term vsubst(const TermSubst& theta, const Term& t);

/// Instantiate type variables throughout a term, renaming bound term
/// variables when instantiation would cause capture.
Term type_inst(const TypeSubst& theta, const Term& t);

/// A variant of variable `v` (same type, primed name) that is not free in
/// any of `avoid`.
Term variant(const std::set<Term>& avoid, const Term& v);

// --- Equality-specific helpers (the `=` constant is primitive) ------------

/// The equality constant at element type `ty`: `(=) : ty -> ty -> bool`.
Term eq_const(const Type& ty);
/// `a = b` as a term (types must agree).
Term mk_eq(const Term& a, const Term& b);
bool is_eq(const Term& t);
Term eq_lhs(const Term& t);
Term eq_rhs(const Term& t);

/// Strip an application spine: `f x y z` -> (f, [x, y, z]).
std::pair<Term, std::vector<Term>> strip_comb(const Term& t);
/// Build an application spine.
Term list_comb(Term f, const std::vector<Term>& args);

}  // namespace eda::kernel
