#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel/error.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "kernel/types.h"

namespace eda::kernel {

/// Raised on any malformation while decoding: truncated input, bad magic,
/// version skew, checksum mismatch, out-of-range node references or
/// ill-typed reconstructed terms.  Loaders catch it and fall back to a cold
/// start — a persisted cache is an optimisation, never an obligation.
class SerializeError : public KernelError {
 public:
  explicit SerializeError(const std::string& what) : KernelError(what) {}
};

/// Cache-file format version.  Bump on ANY layout change: decoders reject
/// other versions wholesale (a persistent cache is regenerable, so skew
/// handling is "ignore and start cold", never migration).
inline constexpr std::uint32_t kSerializeVersion = 1;

/// Compact binary serializer for interned Type/Term DAGs plus arbitrary
/// client records that reference them.
///
/// Hash-consing makes the representation natural: every distinct node is
/// written ONCE into a topologically ordered node table (children strictly
/// before parents), and every later occurrence — in other nodes or in the
/// client payload — is a fixed-width index into that table.  A term that is
/// a 2^40-leaf equality tower therefore serializes in O(DAG size), exactly
/// the kernel's in-memory cost model.
///
/// Layout of `finish()` (all integers little-endian, fixed width):
///
///   "EDAC"                     4-byte magic
///   u32  version               kSerializeVersion
///   u64  checksum              FNV-1a 64 of everything below
///   u32  type node count       then one record per type node
///   u32  term node count       then one record per term node
///   payload bytes              the client's records, in call order
///
/// Deserialization re-interns every node through the public Type/Term
/// constructors, so a round trip preserves pointer identity with whatever
/// is already interned in the process: alpha hashes, cached free-variable
/// sets and `node_id()`-keyed memo entries all come back for free.
class Encoder {
 public:
  // Scalar payload writers.
  void u8(std::uint8_t v) { put_u8(payload_, v); }
  void u32(std::uint32_t v) { put_u32(payload_, v); }
  void u64(std::uint64_t v) { put_u64(payload_, v); }
  void f64(double v);
  void str(const std::string& s) { put_str(payload_, s); }

  /// Write a node reference into the payload, registering the node (and,
  /// transitively, its sub-DAG) in the node tables on first sight.
  void type(const Type& ty) { put_u32(payload_, type_index(ty)); }
  void term(const Term& t) { put_u32(payload_, term_index(t)); }

  /// A theorem: hypotheses, conclusion and oracle tags.
  void thm(const Thm& th);

  /// Assemble header + node tables + payload.
  std::string finish() const;

 private:
  static void put_u8(std::string& out, std::uint8_t v);
  static void put_u32(std::string& out, std::uint32_t v);
  static void put_u64(std::string& out, std::uint64_t v);
  static void put_str(std::string& out, const std::string& s);

  std::uint32_t type_index(const Type& ty);
  std::uint32_t term_index(const Term& t);

  std::unordered_map<const void*, std::uint32_t> type_ids_, term_ids_;
  std::string type_table_, term_table_, payload_;
};

/// Decoder for Encoder output.  The constructor validates the header
/// (magic, version, checksum) and re-interns the full node tables; payload
/// readers then hand back canonical Type/Term values by index.  Every read
/// is bounds-checked and every reconstruction runs through the type-checked
/// kernel constructors, so arbitrary corrupt input produces SerializeError,
/// never a crash or an ill-typed term.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  Type type();
  Term term();
  Thm thm();

  /// True once the whole payload has been consumed (a loader asserting
  /// this catches trailing-garbage / schema-drift corruption).
  bool at_end() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  const Type& type_at(std::uint32_t idx) const;
  const Term& term_at(std::uint32_t idx) const;
  void parse_tables();

  std::string_view data_;
  std::size_t pos_ = 0;
  std::vector<Type> types_;
  std::vector<Term> terms_;
};

/// Streaming FNV-1a 64: feed bytes (or little-endian u64 words) in order,
/// read `digest()` at the end.  Each step is a bijection on the running
/// state, so two equal-length inputs differing anywhere hash differently.
/// Feeding a sequence in pieces gives the same digest as feeding it whole,
/// so a caller can hash a canonical byte walk without materialising it.
class Fnv1a64 {
 public:
  Fnv1a64& byte(std::uint8_t b) {
    h_ = (h_ ^ b) * kPrime;
    return *this;
  }
  Fnv1a64& bytes(std::string_view s) {
    for (char c : s) byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  Fnv1a64& u64(std::uint64_t v) {
    // A zero byte's step is a bare multiply, so the run of zero bytes
    // above v's highest nonzero byte folds into one multiply by a power
    // of the prime: the same digest, with fewer serial multiplies for
    // the small values structural walks are made of.
    int n = 0;
    for (; v != 0; v >>= 8, ++n) byte(static_cast<std::uint8_t>(v));
    h_ *= kPrimePow[static_cast<std::size_t>(8 - n)];
    return *this;
  }
  std::uint64_t digest() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  /// kPrime^k for k = 0..8.
  static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
    std::array<std::uint64_t, 9> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kPrime;
    return p;
  }();

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a 64 over a byte range — the cache-file checksum.  Truncation is
/// caught separately by the bounds-checked reads.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  return Fnv1a64().bytes(bytes).digest();
}

}  // namespace eda::kernel
