#include "verify/sis_fsm.h"

#include <algorithm>
#include <chrono>

#include "sim/bitsim.h"

namespace eda::verify {

namespace {

/// Clock reads happen before every kPacketsPerClockCheck-th packet (64
/// input vectors) of the whole run, so the budget holds inside one state
/// too: a state at 24 input bits is 2^18 packets.
constexpr std::uint64_t kPacketsPerClockCheck = 64;

/// Stimulus words for inputs 0..5 of a packet: lane l carries input vector
/// base + l with base a multiple of 64, so input k < 6 reads bit k of l.
constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Transpose a 64x64 bit matrix in place: afterwards bit j of a[l] is what
/// bit l of a[j] was.  Swaps off-diagonal blocks of 32, 16, ..., 1 bits.
void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// Spread one side's next states across lanes: `lanes[w * 64 + l]` is word
/// w of lane l's packed next state (flip-flop k in bit k % 64 of word
/// k / 64).
void gather_next(const sim::BitSimulator& sim, std::size_t ffs,
                 std::uint64_t* lanes) {
  for (std::size_t w = 0; w * 64 < ffs; ++w) {
    std::uint64_t* block = lanes + w * 64;
    std::size_t n = std::min<std::size_t>(64, ffs - w * 64);
    for (std::size_t j = 0; j < n; ++j) {
      block[j] = sim.state(static_cast<int>(w * 64 + j)).val;
    }
    std::fill(block + n, block + 64, 0);
    transpose64(block);
  }
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The visited product states, `width` words each, stored in discovery
/// order.  Breadth-first discovery order is also dequeue order, so the
/// states past the search's cursor are its queue.  An open-addressing
/// index over the store answers membership only; it never decides order.
class StateSet {
 public:
  explicit StateSet(std::size_t width) : width_(width), index_(1024, 0) {}

  std::size_t size() const { return count_; }
  const std::uint64_t* at(std::size_t i) const {
    return store_.data() + i * width_;
  }

  /// Append `key` unless it is already present.
  void insert(const std::uint64_t* key) {
    std::size_t mask = index_.size() - 1;
    std::size_t slot = hash(key) & mask;
    while (index_[slot] != 0) {
      if (std::equal(key, key + width_, at(index_[slot] - 1))) return;
      slot = (slot + 1) & mask;
    }
    store_.insert(store_.end(), key, key + width_);
    index_[slot] = static_cast<std::uint32_t>(++count_);
    if (2 * count_ > index_.size()) rehash(2 * index_.size());
  }

 private:
  std::size_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0;
    for (std::size_t w = 0; w < width_; ++w) h = mix(h ^ key[w]);
    return static_cast<std::size_t>(h);
  }
  void rehash(std::size_t capacity) {
    index_.assign(capacity, 0);
    std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t slot = hash(at(i)) & mask;
      while (index_[slot] != 0) slot = (slot + 1) & mask;
      index_[slot] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::size_t width_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> store_;
  std::vector<std::uint32_t> index_;  // state index + 1; 0 is empty
};

}  // namespace

VerifyResult sis_fsm_check(const circuit::GateNetlist& a,
                           const circuit::GateNetlist& b,
                           const VerifyOptions& opts) {
  VerifyResult res;
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    res.completed = true;
    res.equivalent = false;
    return res;
  }
  const std::size_t ni = a.inputs().size();
  if (ni > 24) {
    // Input enumeration hopeless; report "-".  This is a capability limit,
    // not a transient budget: escalation cannot help, but the class is
    // still "resources" (the state space, not the wall clock, is the wall).
    res.failure = FailureKind::ResourceExhausted;
    return res;
  }

  sim::BitSimulator sa(a), sb(b);
  const std::size_t na = a.dffs().size(), nb = b.dffs().size();
  const std::size_t wa = (na + 63) / 64, wb = (nb + 63) / 64;
  const std::size_t width = wa + wb;  // A's words, then B's

  std::vector<std::uint64_t> key(width, 0);
  for (std::size_t k = 0; k < na; ++k) {
    if (a.node(a.dffs()[k]).init) key[k / 64] |= 1ULL << (k % 64);
  }
  for (std::size_t k = 0; k < nb; ++k) {
    if (b.node(b.dffs()[k]).init) key[wa + k / 64] |= 1ULL << (k % 64);
  }
  StateSet visited(width);
  visited.insert(key.data());

  const std::uint64_t vectors = 1ULL << ni;
  const std::uint64_t valid_lanes =
      vectors >= 64 ? ~0ULL : (1ULL << vectors) - 1;
  std::vector<std::uint64_t> stimulus(ni, 0);
  for (std::size_t k = 0; k < ni && k < 6; ++k) stimulus[k] = kLanePattern[k];
  std::vector<std::uint64_t> state(width);
  std::vector<std::uint64_t> next_a(wa * 64), next_b(wb * 64);
  std::uint64_t packets = 0;

  for (std::size_t head = 0; head < visited.size(); ++head) {
    if (visited.size() > opts.state_limit) {
      res.failure = FailureKind::ResourceExhausted;
      res.seconds = elapsed();
      res.peak = visited.size();
      return res;  // "-"
    }
    // A copy: inserts below may reallocate the store under at(head).
    std::copy(visited.at(head), visited.at(head) + width, state.begin());
    ++res.iterations;
    for (std::uint64_t base = 0; base < vectors; base += 64) {
      if (packets++ % kPacketsPerClockCheck == 0) {
        double now = elapsed();
        if (now > opts.timeout_sec) {
          res.failure = FailureKind::Timeout;
          res.seconds = now;
          res.peak = visited.size();
          return res;  // "-"
        }
      }
      for (std::size_t k = 6; k < ni; ++k) {
        stimulus[k] = 0 - ((base >> k) & 1);
      }
      sa.latch(state.data());
      sb.latch(state.data() + wa);
      sa.step(stimulus);
      sb.step(stimulus);
      std::uint64_t diff = 0;
      for (int k = 0; k < sa.num_outputs(); ++k) {
        diff |= sa.output(k).val ^ sb.output(k).val;
      }
      diff &= valid_lanes;
      // Record successors in input-vector order, stopping at the first
      // mismatch: exactly the states a one-vector-at-a-time search would
      // have seen before returning.
      std::uint64_t lanes = diff != 0 ? (diff & (0 - diff)) - 1 : valid_lanes;
      gather_next(sa, na, next_a.data());
      gather_next(sb, nb, next_b.data());
      for (int l = 0; l < 64 && ((lanes >> l) & 1) != 0; ++l) {
        bool repeat = l > 0;  // same successor as lane l - 1: already in
        for (std::size_t w = 0; w < wa; ++w) {
          std::uint64_t word = next_a[w * 64 + l];
          repeat = repeat && key[w] == word;
          key[w] = word;
        }
        for (std::size_t w = 0; w < wb; ++w) {
          std::uint64_t word = next_b[w * 64 + l];
          repeat = repeat && key[wa + w] == word;
          key[wa + w] = word;
        }
        if (!repeat) visited.insert(key.data());
      }
      if (diff != 0) {
        res.completed = true;
        res.equivalent = false;
        res.seconds = elapsed();
        res.peak = visited.size();
        return res;
      }
    }
  }
  res.completed = true;
  res.equivalent = true;
  res.seconds = elapsed();
  res.peak = visited.size();
  return res;
}

}  // namespace eda::verify
