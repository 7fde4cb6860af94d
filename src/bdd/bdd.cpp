#include "bdd/bdd.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <new>
#include <numeric>

namespace eda::bdd {

namespace {

constexpr int kTermVar = std::numeric_limits<int>::max();
constexpr std::size_t kMaxNodes = std::size_t{1} << 30;
constexpr std::size_t kInitialSlots = 1024;  // unique table and cache
constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 20;
// Tables of at least 1 MiB get pages of their own (mmap) instead of heap
// memory, so freeing one returns them to the system at once and a manager
// kept between problems pins no heap around it.  Left to malloc, tables
// this large stay in the heap once glibc raises its mmap threshold after
// the first large free, and each thread's heap keeps its high-water mark:
// with heap tables `bench_table1 --max-n 24 --timeout 2 --jobs 4` peaked
// at 131-146 MB with a fresh manager per call and at 139-163 MB with one
// kept per thread, and at 101-108 MB with mapped ones (4-vCPU container).
// Smaller tables stay on the heap, where a fresh manager reuses freed
// memory: mapping every table from 128 KiB up made fig2:8's product in a
// fresh manager take 116-134 us instead of 81-93 us.
constexpr std::size_t kMappedTableBytes = std::size_t{1} << 20;
// Generations fit the op tag's high bits; the cache is wiped when they
// run out.
constexpr std::uint32_t kGenerations = std::uint32_t{1} << 29;
// Node requests between two reads of the clock against the deadline: a
// read costs tens of nanoseconds, 4096 requests tens of microseconds.
constexpr int kDeadlineStride = 4096;

// Multiply-mix three words into a table index; the final fold brings the
// well-mixed high bits down to the low bits the masks keep.
std::size_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = (a + 1) * 0x9E3779B97F4A7C15ULL;
  h = (h ^ b) * 0xC2B2AE3D27D4EB4FULL;
  h = (h ^ c) * 0x165667B19E3779F9ULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

std::uint64_t word(BddId x) { return static_cast<std::uint64_t>(x); }

// Relaxed: a statistic, not a synchronisation point.
std::atomic<std::uint64_t> g_managers_constructed{0};

}  // namespace

std::uint64_t BddManager::managers_constructed() {
  return g_managers_constructed.load(std::memory_order_relaxed);
}

BddManager::BddManager(int num_vars, std::size_t node_limit)
    : num_vars_(num_vars),
      node_limit_(std::min(node_limit, kMaxNodes)),
      unique_(kInitialSlots, 0),
      cache_(kInitialSlots) {
  if (num_vars < 0) throw BddError("negative variable count");
  nodes_.reserve(kInitialSlots / 2);
  nodes_.push_back({kTermVar, 0, 0, 0});  // FALSE
  g_managers_constructed.fetch_add(1, std::memory_order_relaxed);
}

void* BddManager::allocate_table(std::size_t bytes) {
  if (bytes < kMappedTableBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void BddManager::free_table(void* p, std::size_t bytes) {
  if (bytes < kMappedTableBytes) {
    ::operator delete(p);
  } else {
    munmap(p, bytes);
  }
}

void BddManager::reset(int num_vars, std::size_t node_limit) {
  if (num_vars < 0) throw BddError("negative variable count");
  std::fill(unique_.begin(), unique_.end(), 0);
  nodes_.resize(1);  // the FALSE terminal
  if (++generation_ == kGenerations) {
    std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    generation_ = 1;
  }
  num_vars_ = num_vars;
  node_limit_ = std::min(node_limit, kMaxNodes);
  rename_maps_.clear();
  epoch_ = 0;
  set_deadline(std::chrono::steady_clock::time_point::max());
}

void BddManager::check_var(int index) const {
  if (index < 0 || index >= num_vars_) throw BddError("var out of range");
}

void BddManager::set_deadline(std::chrono::steady_clock::time_point t) {
  deadline_ = t;
  until_clock_read_ = 0;
}

void BddManager::check_deadline() {
  until_clock_read_ = kDeadlineStride;
  if (std::chrono::steady_clock::now() > deadline_) {
    throw BddTimeout("BDD time budget exceeded");
  }
}

BddId BddManager::mk(int var, BddId lo, BddId hi) {
  if (lo == hi) return lo;
  if (--until_clock_read_ < 0) check_deadline();
  // Canonical form keeps lo regular: (v ? hi : ~lo) == ~(v ? ~hi : lo).
  const BddId neg = lo & 1;
  lo ^= neg;
  hi ^= neg;
  const std::size_t mask = unique_.size() - 1;
  std::size_t i = mix(word(var), word(lo), word(hi)) & mask;
  for (std::uint32_t s = unique_[i]; s != 0; s = unique_[i]) {
    const Node& n = nodes_[s];
    if (n.var == var && n.lo == lo && n.hi == hi) {
      return static_cast<BddId>(s << 1) | neg;
    }
    i = (i + 1) & mask;
  }
  if (nodes_.size() >= node_limit_) {
    throw BddError("BDD node limit exceeded");
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back({var, lo, hi, 0});
  unique_[i] = idx;
  if (2 * nodes_.size() > unique_.size()) grow_tables();
  return static_cast<BddId>(idx << 1) | neg;
}

void BddManager::grow_tables() {
  Table<std::uint32_t> slots(2 * unique_.size(), 0);
  const std::size_t mask = slots.size() - 1;
  for (std::uint32_t idx = 1; idx < nodes_.size(); ++idx) {
    const Node& n = nodes_[idx];
    std::size_t i = mix(word(n.var), word(n.lo), word(n.hi)) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = idx;
  }
  unique_.swap(slots);

  const std::size_t want = std::min(unique_.size(), kMaxCacheEntries);
  if (cache_.size() >= want) return;
  Table<CacheEntry> old(want);
  old.swap(cache_);
  for (const CacheEntry& e : old) {
    if (e.tag >> kOpBits == generation_) {
      const auto op = static_cast<Op>(e.tag & ((1u << kOpBits) - 1));
      cache_[cache_slot(op, e.f, e.g, e.h)] = e;
    }
  }
}

std::size_t BddManager::cache_slot(Op op, BddId f, BddId g, BddId h) const {
  const std::uint64_t tagged = (word(h) << 8) | static_cast<std::uint64_t>(op);
  return mix(word(f), word(g), tagged) & (cache_.size() - 1);
}

bool BddManager::cache_find(Op op, BddId f, BddId g, BddId h,
                            BddId& result) const {
  const CacheEntry& e = cache_[cache_slot(op, f, g, h)];
  if (e.tag != cache_tag(op) || e.f != f || e.g != g || e.h != h) {
    return false;
  }
  result = e.result;
  return true;
}

void BddManager::cache_store(Op op, BddId f, BddId g, BddId h, BddId result) {
  cache_[cache_slot(op, f, g, h)] = {cache_tag(op), f, g, h, result};
}

BddId BddManager::var(int index) {
  check_var(index);
  return mk(index, 0, 1);
}

std::pair<BddId, BddId> BddManager::cofactors(BddId f, int v) const {
  const Node& n = nodes_[static_cast<std::size_t>(f >> 1)];
  if (n.var != v) return {f, f};
  return {n.lo ^ (f & 1), n.hi ^ (f & 1)};
}

// The recursions below copy what they need out of nodes_ before recursing:
// mk may reallocate nodes_ and the cache, so no reference into either may
// survive a call that can create a node.

BddId BddManager::land(BddId f, BddId g) {
  if (f == 0 || g == 0 || f == (g ^ 1)) return 0;
  if (f == 1 || f == g) return g;
  if (g == 1) return f;
  if (f > g) std::swap(f, g);
  BddId r = 0;
  if (cache_find(Op::And, f, g, 0, r)) return r;
  const int v = std::min(level(f), level(g));
  const auto [f0, f1] = cofactors(f, v);
  const auto [g0, g1] = cofactors(g, v);
  const BddId lo = land(f0, g0);
  r = mk(v, lo, land(f1, g1));
  cache_store(Op::And, f, g, 0, r);
  return r;
}

BddId BddManager::lxor(BddId f, BddId g) {
  // f ^ g == (|f| ^ |g|) complemented by the parity of the two edges.
  const BddId neg = (f ^ g) & 1;
  f &= ~1;
  g &= ~1;
  if (f == g) return neg;
  if (f == 0) return g ^ neg;
  if (g == 0) return f ^ neg;
  if (f > g) std::swap(f, g);
  BddId r = 0;
  if (cache_find(Op::Xor, f, g, 0, r)) return r ^ neg;
  const int v = std::min(level(f), level(g));
  const auto [f0, f1] = cofactors(f, v);
  const auto [g0, g1] = cofactors(g, v);
  const BddId lo = lxor(f0, g0);
  r = mk(v, lo, lxor(f1, g1));
  cache_store(Op::Xor, f, g, 0, r);
  return r ^ neg;
}

BddId BddManager::ite(BddId f, BddId g, BddId h) {
  if (f == 1) return g;
  if (f == 0) return h;
  if (g == f) g = 1;
  if (g == (f ^ 1)) g = 0;
  if (h == f) h = 0;
  if (h == (f ^ 1)) h = 1;
  if (g == h) return g;
  if (g == 1) return lor(f, h);
  if (g == 0) return land(f ^ 1, h);
  if (h == 0) return land(f, g);
  if (h == 1) return lor(f ^ 1, g);
  if (g == (h ^ 1)) return lxor(f, h);
  // Standard triple: f and g regular.
  if (f & 1) {
    f ^= 1;
    std::swap(g, h);
  }
  const BddId neg = g & 1;
  g ^= neg;
  h ^= neg;
  BddId r = 0;
  if (cache_find(Op::Ite, f, g, h, r)) return r ^ neg;
  const int v = std::min({level(f), level(g), level(h)});
  const auto [f0, f1] = cofactors(f, v);
  const auto [g0, g1] = cofactors(g, v);
  const auto [h0, h1] = cofactors(h, v);
  const BddId lo = ite(f0, g0, h0);
  r = mk(v, lo, ite(f1, g1, h1));
  cache_store(Op::Ite, f, g, h, r);
  return r ^ neg;
}

BddId BddManager::cube(const std::vector<int>& vars) {
  std::vector<int> sorted(vars);
  std::sort(sorted.begin(), sorted.end(), std::greater<int>());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  BddId c = 1;
  for (int v : sorted) {
    check_var(v);
    c = mk(v, 0, c);  // v sits above every variable already in c
  }
  return c;
}

// A cube is a regular edge whose node has lo = FALSE; its hi edge is the
// rest of the cube (TRUE at the end).

BddId BddManager::exists(BddId f, const std::vector<int>& vars) {
  return exists_rec(f, cube(vars));
}

BddId BddManager::exists_rec(BddId f, BddId cube) {
  if (f <= 1) return f;
  const int v = level(f);
  while (cube != 1 && level(cube) < v) {
    cube = nodes_[static_cast<std::size_t>(cube >> 1)].hi;
  }
  if (cube == 1) return f;
  BddId r = 0;
  if (cache_find(Op::Exists, f, cube, 0, r)) return r;
  const auto [f0, f1] = cofactors(f, v);
  if (level(cube) == v) {
    const BddId rest = nodes_[static_cast<std::size_t>(cube >> 1)].hi;
    r = exists_rec(f0, rest);
    if (r != 1) r = lor(r, exists_rec(f1, rest));
  } else {
    const BddId lo = exists_rec(f0, cube);
    r = mk(v, lo, exists_rec(f1, cube));
  }
  cache_store(Op::Exists, f, cube, 0, r);
  return r;
}

BddId BddManager::and_exists(BddId f, BddId g, const std::vector<int>& vars) {
  return and_exists_rec(f, g, cube(vars));
}

BddId BddManager::and_exists_rec(BddId f, BddId g, BddId cube) {
  if (f == 0 || g == 0 || f == (g ^ 1)) return 0;
  if (f == 1 || f == g) return exists_rec(g, cube);
  if (g == 1) return exists_rec(f, cube);
  if (f > g) std::swap(f, g);
  const int v = std::min(level(f), level(g));
  while (cube != 1 && level(cube) < v) {
    cube = nodes_[static_cast<std::size_t>(cube >> 1)].hi;
  }
  if (cube == 1) return land(f, g);
  BddId r = 0;
  if (cache_find(Op::AndExists, f, g, cube, r)) return r;
  const auto [f0, f1] = cofactors(f, v);
  const auto [g0, g1] = cofactors(g, v);
  if (level(cube) == v) {
    const BddId rest = nodes_[static_cast<std::size_t>(cube >> 1)].hi;
    r = and_exists_rec(f0, g0, rest);
    if (r != 1) r = lor(r, and_exists_rec(f1, g1, rest));
  } else {
    const BddId lo = and_exists_rec(f0, g0, cube);
    r = mk(v, lo, and_exists_rec(f1, g1, cube));
  }
  cache_store(Op::AndExists, f, g, cube, r);
  return r;
}

BddId BddManager::cofactor(BddId f, int v, bool value) {
  check_var(v);
  return cofactor_rec(f, v, value ? 1 : 0);
}

BddId BddManager::cofactor_rec(BddId f, int v, BddId value) {
  if (level(f) > v) return f;  // f does not depend on v (terminals too)
  const BddId neg = f & 1;  // cofactor(~f) == ~cofactor(f)
  f ^= neg;
  const Node n = nodes_[static_cast<std::size_t>(f >> 1)];
  if (n.var == v) return (value != 0 ? n.hi : n.lo) ^ neg;
  BddId r = 0;
  if (cache_find(Op::Cofactor, f, v, value, r)) return r ^ neg;
  const BddId lo = cofactor_rec(n.lo, v, value);
  r = mk(n.var, lo, cofactor_rec(n.hi, v, value));
  cache_store(Op::Cofactor, f, v, value, r);
  return r ^ neg;
}

BddId BddManager::rename(BddId f, const std::vector<int>& to) {
  if (to.size() > static_cast<std::size_t>(num_vars_)) {
    throw BddError("rename: map longer than num_vars");
  }
  std::vector<int> dense(static_cast<std::size_t>(num_vars_));
  std::iota(dense.begin(), dense.end(), 0);
  for (std::size_t v = 0; v < to.size(); ++v) {
    check_var(to[v]);
    dense[v] = to[v];
  }
  auto it = std::find(rename_maps_.begin(), rename_maps_.end(), dense);
  const auto map = static_cast<int>(it - rename_maps_.begin());
  if (it == rename_maps_.end()) rename_maps_.push_back(std::move(dense));
  return rename_rec(f, map);
}

BddId BddManager::rename_rec(BddId f, int map) {
  if (f <= 1) return f;
  const BddId neg = f & 1;  // rename(~f) == ~rename(f)
  f ^= neg;
  BddId r = 0;
  if (cache_find(Op::Rename, f, map, 0, r)) return r ^ neg;
  const Node n = nodes_[static_cast<std::size_t>(f >> 1)];
  const BddId lo = rename_rec(n.lo, map);
  const BddId hi = rename_rec(n.hi, map);
  const std::vector<int>& to = rename_maps_[static_cast<std::size_t>(map)];
  const int v = to[static_cast<std::size_t>(n.var)];
  // Order-preserving where it matters: v still above both renamed
  // children makes (v, lo, hi) a valid node as it stands.
  r = v < level(lo) && v < level(hi) ? mk(v, lo, hi) : ite(var(v), hi, lo);
  cache_store(Op::Rename, f, map, 0, r);
  return r ^ neg;
}

std::vector<int> BddManager::support(BddId f) {
  if (++epoch_ == 0) {  // wrapped: stale marks could alias the new epoch
    for (Node& n : nodes_) n.mark = 0;
    epoch_ = 1;
  }
  std::vector<char> seen(static_cast<std::size_t>(num_vars_), 0);
  std::vector<std::uint32_t> stack;
  auto visit = [&](BddId e) {
    const auto idx = static_cast<std::uint32_t>(e >> 1);
    if (idx == 0 || nodes_[idx].mark == epoch_) return;
    nodes_[idx].mark = epoch_;
    stack.push_back(idx);
  };
  visit(f);
  while (!stack.empty()) {
    const Node n = nodes_[stack.back()];
    stack.pop_back();
    seen[static_cast<std::size_t>(n.var)] = 1;
    visit(n.lo);
    visit(n.hi);
  }
  std::vector<int> out;
  for (int v = 0; v < num_vars_; ++v) {
    if (seen[static_cast<std::size_t>(v)]) out.push_back(v);
  }
  return out;
}

bool BddManager::eval(BddId f, const std::vector<bool>& assignment) const {
  if (assignment.size() < static_cast<std::size_t>(num_vars_)) {
    throw BddError("eval: assignment shorter than num_vars");
  }
  BddId neg = f & 1;
  std::size_t idx = static_cast<std::size_t>(f >> 1);
  while (idx != 0) {
    const Node& n = nodes_[idx];
    const BddId e = assignment[static_cast<std::size_t>(n.var)] ? n.hi : n.lo;
    neg ^= e & 1;
    idx = static_cast<std::size_t>(e >> 1);
  }
  return neg == 1;
}

}  // namespace eda::bdd
