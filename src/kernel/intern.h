#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace eda::kernel::detail {

/// Bump-pointer arena backing the interned Type/Term nodes.  Interned nodes
/// are canonical for the whole process — pointer identity IS structural
/// identity — so the arena never frees individual nodes and is itself
/// intentionally leaked (see the interner singletons in types.cpp/terms.cpp):
/// memoisation tables keyed on node pointers stay valid for the lifetime of
/// the program, and everything remains reachable for the leak sanitizer.
///
/// Each intern shard owns one arena; allocation happens only inside the
/// shard's insert path, under the shard mutex, so the arena itself needs no
/// synchronisation.
class Arena {
 public:
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return new (p) T(std::forward<Args>(args)...);
  }

  /// Relaxed atomic: written under the owning shard's mutex but read
  /// lock-free by the stats accessors, which may overlap inserts.
  std::size_t bytes_allocated() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  void* allocate(std::size_t size, std::size_t align) {
    std::size_t mis = reinterpret_cast<std::uintptr_t>(cur_) & (align - 1);
    std::size_t pad = mis == 0 ? 0 : align - mis;
    if (left_ < size + pad) {
      std::size_t chunk = size > kChunkSize ? size : kChunkSize;
      chunks_.push_back(std::make_unique<unsigned char[]>(chunk + align));
      cur_ = chunks_.back().get();
      left_ = chunk + align;
      mis = reinterpret_cast<std::uintptr_t>(cur_) & (align - 1);
      pad = mis == 0 ? 0 : align - mis;
    }
    cur_ += pad;
    left_ -= pad;
    void* p = cur_;
    cur_ += size;
    left_ -= size;
    bytes_.store(bytes_.load(std::memory_order_relaxed) + size + pad,
                 std::memory_order_relaxed);
    return p;
  }

  static constexpr std::size_t kChunkSize = 1 << 16;
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  unsigned char* cur_ = nullptr;
  std::size_t left_ = 0;
  std::atomic<std::size_t> bytes_{0};
};

/// One shard of the concurrent intern table: an open-addressing
/// (linear-probing, power-of-two capacity) table of arena-backed nodes with
/// a read-mostly protocol.
///
/// Lookups are lock-free: the slot array holds atomic pointers, writers
/// publish a fully-constructed node with a release store and readers probe
/// with acquire loads, so a reader can never observe a half-built node.
/// Misses fall back to the shard mutex, re-probe (another thread may have
/// won the race), and only then construct + insert.  `make()` therefore runs
/// at most once per distinct structure, preserving the hash-consing
/// invariant (pointer identity ⇔ structural identity) under concurrency.
///
/// Growth allocates a fresh slot array and republishes; superseded arrays
/// are retired but kept alive forever (the interner is process-permanent
/// anyway), so a reader still probing an old array sees a consistent —
/// merely stale — view and retries under the lock on miss.
///
/// The key is the node's own `shash` field, at that field's width: a node
/// type that stores a 32-bit structural hash is compared and placed on
/// those 32 bits.
template <typename Node>
class InternShard {
 public:
  using Key = decltype(Node::shash);

  InternShard() {
    tables_.push_back(make_table(kInitialCapacity));
    // No concurrency can exist during construction; a relaxed store
    // suffices to seed the current-table pointer.
    cur_.store(tables_.front(), std::memory_order_relaxed);
  }

  ~InternShard() {
    for (Slot* t : tables_) delete[] table_base(t);
  }

  template <typename Eq, typename Make>
  const Node* intern(Key h, Eq&& eq, Make&& make) {
    Slot* t = cur_.load(std::memory_order_acquire);
    if (const Node* n = probe(t, h, eq)) {
      count_hit();
      return n;
    }
    std::lock_guard<std::mutex> lock(mu_);
    t = cur_.load(std::memory_order_relaxed);
    if (const Node* n = probe(t, h, eq)) {
      count_hit();
      return n;
    }
    // Grow at 50% load: linear-probe chains touch whole nodes (shash +
    // shallow fields) that live across arena pages, so short chains matter
    // more than slot-array memory (which is just pointers).
    if ((count_.load(std::memory_order_relaxed) + 1) * 2 >=
        table_mask(t) + 1) {
      t = grow(t);
    }
    const Node* n = make(arena_);
    std::size_t mask = table_mask(t);
    std::size_t i = h & mask;
    while (t[i].load(std::memory_order_relaxed) != nullptr) {
      i = (i + 1) & mask;
    }
    t[i].store(n, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  std::size_t size() const { return count_.load(std::memory_order_relaxed); }
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Arena bytes; racy against concurrent inserts but only used for stats.
  std::size_t arena_bytes() const { return arena_.bytes_allocated(); }

 private:
  /// One published table is a raw array of atomic node pointers whose
  /// power-of-two mask is stored in the preceding element (the first slot
  /// of the allocation, cast to an integer).  Publishing a single pointer
  /// keeps the read path at one dependent load before probing — the mask
  /// always belongs to the array it precedes, so readers can never pair a
  /// new mask with an old array.
  using Slot = std::atomic<const Node*>;

  static constexpr std::size_t kInitialCapacity = 256;

  static Slot* make_table(std::size_t cap) {
    // C++17 std::atomic default-construction leaves the value
    // indeterminate; initialise every element explicitly.
    Slot* base = new Slot[cap + 1];
    base[0].store(reinterpret_cast<const Node*>(cap - 1),
                  std::memory_order_relaxed);
    for (std::size_t i = 1; i <= cap; ++i) {
      base[i].store(nullptr, std::memory_order_relaxed);
    }
    return base + 1;
  }

  static Slot* table_base(Slot* t) { return t - 1; }
  static std::size_t table_mask(const Slot* t) {
    return reinterpret_cast<std::size_t>(
        t[-1].load(std::memory_order_relaxed));
  }

  template <typename Eq>
  const Node* probe(const Slot* t, Key h, Eq&& eq) const {
    std::size_t mask = table_mask(t);
    std::size_t i = h & mask;
    for (;;) {
      const Node* n = t[i].load(std::memory_order_acquire);
      if (n == nullptr) return nullptr;
      if (n->shash == h && eq(n)) return n;
      i = (i + 1) & mask;
    }
  }

  /// Called under mu_.  Readers may still probe the old array; it stays
  /// alive in tables_.
  Slot* grow(Slot* old) {
    std::size_t old_cap = table_mask(old) + 1;
    Slot* next = make_table(old_cap * 2);
    std::size_t mask = table_mask(next);
    for (std::size_t k = 0; k < old_cap; ++k) {
      const Node* n = old[k].load(std::memory_order_relaxed);
      if (n == nullptr) continue;
      std::size_t i = n->shash & mask;
      while (next[i].load(std::memory_order_relaxed) != nullptr) {
        i = (i + 1) & mask;
      }
      next[i].store(n, std::memory_order_relaxed);
    }
    tables_.push_back(next);
    cur_.store(next, std::memory_order_release);
    return next;
  }

  /// Hit counting is deliberately non-atomic-RMW: a plain relaxed
  /// load+store keeps the hot hit path free of locked instructions at the
  /// cost of occasionally losing an increment under contention.  The stat
  /// is exact in single-threaded runs and approximate otherwise.
  void count_hit() {
    hits_.store(hits_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }

  std::mutex mu_;  ///< serialises inserts and growth
  Arena arena_;    ///< node storage, touched only under mu_
  std::vector<Slot*> tables_;  ///< all arrays, ever (freed on destruction)
  std::atomic<Slot*> cur_{nullptr};
  std::atomic<std::size_t> count_{0};
  // Own cache line: the hit counter is stored on every table hit and must
  // not share a line with cur_, which every probe loads.
  alignas(64) std::atomic<std::size_t> hits_{0};
};

/// Sharded concurrent intern table: `kShards` independent InternShards
/// selected by the top bits of the structural hash (the bottom bits index
/// slots within a shard, so the two are independent).  Each shard has its
/// own mutex and arena; threads interning structurally unrelated nodes
/// almost never contend.
template <typename Node, std::size_t kShardBits = 3>
class InternTable {
 public:
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  using Key = typename InternShard<Node>::Key;

  /// Return the canonical node with structural hash `h` matching `eq`,
  /// inserting the node produced by `make(arena)` (whose shash must equal
  /// `h`) when no match exists.  `make` runs at most once per structure,
  /// under the owning shard's lock, and allocates from that shard's arena.
  template <typename Eq, typename Make>
  const Node* intern(Key h, Eq&& eq, Make&& make) {
    return shards_[shard_of(h)].intern(h, std::forward<Eq>(eq),
                                       std::forward<Make>(make));
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.size();
    return n;
  }
  std::size_t hits() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.hits();
    return n;
  }
  std::size_t arena_bytes() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.arena_bytes();
    return n;
  }

 private:
  static std::size_t shard_of(Key h) {
    // Comb/Abs structural hashes are built from pointer values whose
    // entropy rarely reaches the top bits of the word (std::hash on
    // pointers is the identity), so finalize with a Fibonacci multiply
    // before taking the top bits — without it, every pointer-keyed node
    // lands in one shard and the striping is a single global lock.  The
    // cast narrows the ULL product back to the word size so the
    // width-relative shift leaves exactly kShardBits bits on 32-bit
    // targets too.
    std::size_t mixed =
        static_cast<std::size_t>(h * 0x9e3779b97f4a7c15ULL);
    return mixed >> (sizeof(std::size_t) * 8 - kShardBits);
  }

  InternShard<Node> shards_[kShards];
};

/// Interning statistics for one node kind, surfaced through
/// `Type::intern_stats()` / `Term::intern_stats()` for tests and tools.
/// Under concurrent construction the numbers are racy snapshots; the hit
/// count in particular is approximate (see InternShard::count_hit).
struct InternStats {
  std::size_t live_nodes = 0;   ///< distinct interned nodes
  std::size_t hits = 0;         ///< constructor calls answered from the table
  /// Node storage, with the Var/Const name objects kept beside their
  /// nodes (not those names' heap buffers).
  std::size_t arena_bytes = 0;
  /// Terms only: bytes of the published free-variable views.
  std::size_t free_var_bytes = 0;
};

}  // namespace eda::kernel::detail
