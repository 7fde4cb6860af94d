#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kernel/error.h"

namespace eda::bdd {

/// Edge handle `(node << 1) | complement`.  Node 0 is the only terminal,
/// FALSE, so 0 is FALSE, 1 (its complement) is TRUE, and negation flips
/// the low bit.
using BddId = int;

class BddError : public kernel::KernelError {
 public:
  explicit BddError(const std::string& what) : kernel::KernelError(what) {}
};

/// Thrown by an operation that runs past the manager's deadline.
class BddTimeout : public BddError {
 public:
  explicit BddTimeout(const std::string& what) : BddError(what) {}
};

/// Reduced ordered BDD manager with complement edges, after Brace, Rudell
/// & Bryant, "Efficient implementation of a BDD package" (DAC '90).
/// Variable order is the index order (0 at the top).  This is the
/// substrate for the SMV-style model checker and the van Eijk traversal
/// baselines — the data structure whose exponential growth the paper's
/// tables demonstrate.
///
/// - Nodes live in one flat array and are never freed within a problem;
///   reset() empties the array for the next one and keeps its capacity.
///   A node's lo edge is always regular (the complement moves onto the
///   edge pointing at the node), so a function and its negation share one
///   node and `lnot` is O(1).
/// - The unique table is open addressing with linear probing over node
///   indices, kept at most half full.
/// - One direct-mapped, lossy computed cache serves and, xor, ite,
///   exists, and_exists, cofactor and rename, keyed by an op tag and the
///   operands; a colliding store overwrites.  Quantified variables enter
///   the key as a cube BDD and a rename map as its index among the maps
///   this manager has seen, so keys are canonical across calls.  The cache
///   starts at 1024 entries and doubles with the unique table up to 2^20
///   entries (20 MB).  Each tag also carries the manager's generation,
///   which reset() bumps, so no entry outlives its problem.
/// - Node budget: creating a node that would make `node_table_size()`
///   (terminal included) exceed `node_limit` throws BddError.  The limit
///   is clamped to 2^30 so a handle fits an int.
/// - Time budget: past the deadline set_deadline names, an operation
///   throws BddTimeout within a few thousand node requests, so one long
///   apply cannot run on past its caller's budget.
///
/// Reuse, after CUDD's long-lived manager: reset() starts a new problem in
/// the tables the last one grew, so it neither allocates nor rehashes; it
/// sweeps the unique table's 4-byte slots once.  A reset manager creates
/// the same nodes, in the same order, as a fresh one given the same calls.
/// Tables of 1 MiB or more are pages mapped for them alone, returned to the
/// system as soon as they are freed.
///
/// Threading model: *confinement*, not sharing.  A BddManager instance is
/// owned by exactly one thread at a time.  verify::check_batch
/// (verify/batch_bdd.h) leases its thread's one manager for the length of
/// a call and resets it for the next.  Within that call a manager may
/// serve many obligations at once — a batch's product machines share one
/// variable order (verify::product_layout), so logic they share interns to
/// the same nodes — but it is never shared across threads; locking these
/// tables would only serialise the deeply recursive apply walks.
class BddManager {
 public:
  explicit BddManager(int num_vars, std::size_t node_limit = 50'000'000);

  /// Managers constructed since program start, on every thread.  A
  /// statistic in the idiom of `Thm::theorems_constructed`: check_batch
  /// keeps one manager per thread, so a thread's later calls add none.
  static std::uint64_t managers_constructed();

  /// Start a new problem, as if freshly constructed with these arguments,
  /// in the tables the last problem grew.  Every handle from before the
  /// reset is invalid after it.  The unique table is zeroed in one sweep;
  /// the computed cache is invalidated in O(1) by a new generation; rename
  /// maps, the support epoch and the deadline are cleared.  Valid after
  /// any BddError.
  void reset(int num_vars, std::size_t node_limit = 50'000'000);

  int num_vars() const { return num_vars_; }
  std::size_t node_table_size() const { return nodes_.size(); }
  /// The node count at which the tables next grow: the room reset keeps.
  std::size_t node_capacity() const { return unique_.size() / 2; }
  /// Operations throw BddTimeout once the steady clock passes `t` (none
  /// by default).  Any state they leave is valid, as after BddError.
  void set_deadline(std::chrono::steady_clock::time_point t);

  BddId false_bdd() const { return 0; }
  BddId true_bdd() const { return 1; }
  /// Throws BddError unless 0 <= index < num_vars().
  BddId var(int index);
  BddId nvar(int index) { return var(index) ^ 1; }

  BddId ite(BddId f, BddId g, BddId h);
  BddId land(BddId a, BddId b);
  BddId lor(BddId a, BddId b) { return land(a ^ 1, b ^ 1) ^ 1; }
  BddId lxor(BddId a, BddId b);
  BddId lnot(BddId a) const { return a ^ 1; }
  BddId lxnor(BddId a, BddId b) { return lxor(a, b) ^ 1; }

  /// Existential quantification over a set of variables.
  BddId exists(BddId f, const std::vector<int>& vars);
  /// The cofactor f|v=value: f with variable v fixed, so
  /// exists(f, {v}) == lor(cofactor(f, v, false), cofactor(f, v, true)).
  BddId cofactor(BddId f, int v, bool value);
  /// Relational product  exists vars. f /\ g  (single pass, the core of
  /// symbolic image computation).
  BddId and_exists(BddId f, BddId g, const std::vector<int>& vars);
  /// Simultaneous variable-to-variable renaming, variable v to `to[v]`
  /// (variables past the end of `to` keep their index).  Any map is
  /// allowed; an order-preserving one (next-state -> present-state)
  /// rebuilds each node directly, others fall back to ite.
  BddId rename(BddId f, const std::vector<int>& to);

  /// Support variables of f, ascending.
  std::vector<int> support(BddId f);
  /// Evaluate under an assignment of every variable; throws BddError when
  /// `assignment` is shorter than num_vars().
  bool eval(BddId f, const std::vector<bool>& assignment) const;

 private:
  struct Node {
    int var = 0;
    BddId lo = 0, hi = 0;    // lo is always a regular edge
    std::uint32_t mark = 0;  // support() visit epoch
  };
  enum class Op : std::uint32_t {
    And,
    Xor,
    Ite,
    Exists,
    AndExists,
    Cofactor,
    Rename,
  };
  /// Op tags: the op in the low kOpBits bits, the generation it was
  /// stored in above them.  Generations start at 1, so a zeroed (empty)
  /// entry never matches.  The slot hashes the op alone.
  static constexpr unsigned kOpBits = 3;
  static_assert(static_cast<std::uint32_t>(Op::Rename) < (1u << kOpBits));
  struct CacheEntry {
    std::uint32_t tag = 0;
    BddId f = 0, g = 0, h = 0, result = 0;
  };
  static_assert(sizeof(CacheEntry) == 20);
  /// The node array, unique table and cache: vectors whose large buffers
  /// are pages mapped for them alone (see allocate_table in bdd.cpp).
  template <class T>
  struct TableAllocator {
    using value_type = T;
    TableAllocator() = default;
    template <class U>
    TableAllocator(const TableAllocator<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(allocate_table(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) { free_table(p, n * sizeof(T)); }
    bool operator==(const TableAllocator&) const { return true; }
    bool operator!=(const TableAllocator&) const { return false; }
  };
  template <class T>
  using Table = std::vector<T, TableAllocator<T>>;
  static void* allocate_table(std::size_t bytes);
  static void free_table(void* p, std::size_t bytes);

  int level(BddId f) const {
    return nodes_[static_cast<std::size_t>(f >> 1)].var;
  }
  /// (f|v=0, f|v=1) for v at or above f's top variable.
  std::pair<BddId, BddId> cofactors(BddId f, int v) const;
  void check_var(int index) const;
  void check_deadline();
  BddId mk(int var, BddId lo, BddId hi);
  void grow_tables();
  std::uint32_t cache_tag(Op op) const {
    return generation_ << kOpBits | static_cast<std::uint32_t>(op);
  }
  std::size_t cache_slot(Op op, BddId f, BddId g, BddId h) const;
  bool cache_find(Op op, BddId f, BddId g, BddId h, BddId& result) const;
  void cache_store(Op op, BddId f, BddId g, BddId h, BddId result);
  BddId cube(const std::vector<int>& vars);
  BddId exists_rec(BddId f, BddId cube);
  BddId and_exists_rec(BddId f, BddId g, BddId cube);
  BddId cofactor_rec(BddId f, int v, BddId value);
  BddId rename_rec(BddId f, int map);

  int num_vars_;
  std::size_t node_limit_;
  Table<Node> nodes_;
  Table<std::uint32_t> unique_;  // node index per slot, 0 = empty
  Table<CacheEntry> cache_;
  std::uint32_t generation_ = 1;  // of the current problem's cache entries
  std::vector<std::vector<int>> rename_maps_;  // dense var -> var maps
  std::uint32_t epoch_ = 0;
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  int until_clock_read_ = 0;  // node requests left before the next read
};

}  // namespace eda::bdd
