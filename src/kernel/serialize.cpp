#include "kernel/serialize.h"

#include <cstring>
#include <set>
#include <utility>

namespace eda::kernel {

namespace {

// Node-record kind bytes.  Distinct enumerations for the two tables so a
// mis-framed file fails fast instead of decoding nonsense.
constexpr std::uint8_t kTypeVar = 0;
constexpr std::uint8_t kTypeApp = 1;
constexpr std::uint8_t kTermVar = 0;
constexpr std::uint8_t kTermConst = 1;
constexpr std::uint8_t kTermComb = 2;
constexpr std::uint8_t kTermAbs = 3;

constexpr char kMagic[4] = {'E', 'D', 'A', 'C'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

[[noreturn]] void fail(const std::string& what) {
  throw SerializeError("serialize: " + what);
}

}  // namespace

// --- Encoder ---------------------------------------------------------------

void Encoder::put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void Encoder::put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::put_str(std::string& out, const std::string& s) {
  if (s.size() > 0xffffffffULL) fail("string too long");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void Encoder::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v, "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(payload_, bits);
}

std::uint32_t Encoder::type_index(const Type& ty) {
  if (auto it = type_ids_.find(ty.node_id()); it != type_ids_.end()) {
    return it->second;
  }
  // Iterative post-order: children are assigned indices (and emitted)
  // strictly before their parents, so table records only ever reference
  // earlier entries.  Explicit stack — interned DAGs can be deep.
  struct Item {
    Type ty;
    bool expanded;
  };
  std::vector<Item> stack{{ty, false}};
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    if (type_ids_.count(item.ty.node_id()) != 0) continue;
    if (!item.expanded) {
      stack.push_back({item.ty, true});
      if (item.ty.is_app()) {
        for (const Type& a : item.ty.args()) {
          if (type_ids_.count(a.node_id()) == 0) stack.push_back({a, false});
        }
      }
      continue;
    }
    if (item.ty.is_var()) {
      put_u8(type_table_, kTypeVar);
      put_str(type_table_, item.ty.name());
    } else {
      put_u8(type_table_, kTypeApp);
      put_str(type_table_, item.ty.name());
      put_u32(type_table_,
              static_cast<std::uint32_t>(item.ty.args().size()));
      for (const Type& a : item.ty.args()) {
        put_u32(type_table_, type_ids_.at(a.node_id()));
      }
    }
    type_ids_.emplace(item.ty.node_id(),
                      static_cast<std::uint32_t>(type_ids_.size()));
  }
  return type_ids_.at(ty.node_id());
}

std::uint32_t Encoder::term_index(const Term& t) {
  if (auto it = term_ids_.find(t.node_id()); it != term_ids_.end()) {
    return it->second;
  }
  struct Item {
    Term t;
    bool expanded;
  };
  std::vector<Item> stack{{t, false}};
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    if (term_ids_.count(item.t.node_id()) != 0) continue;
    if (!item.expanded) {
      stack.push_back({item.t, true});
      if (item.t.is_comb()) {
        stack.push_back({item.t.rand(), false});
        stack.push_back({item.t.rator(), false});
      } else if (item.t.is_abs()) {
        stack.push_back({item.t.body(), false});
        stack.push_back({item.t.bound_var(), false});
      }
      continue;
    }
    switch (item.t.kind()) {
      case Term::Kind::Var:
      case Term::Kind::Const:
        put_u8(term_table_,
               item.t.is_var() ? kTermVar : kTermConst);
        put_str(term_table_, item.t.name());
        put_u32(term_table_, type_index(item.t.type()));
        break;
      case Term::Kind::Comb:
        put_u8(term_table_, kTermComb);
        put_u32(term_table_, term_ids_.at(item.t.rator().node_id()));
        put_u32(term_table_, term_ids_.at(item.t.rand().node_id()));
        break;
      case Term::Kind::Abs:
        put_u8(term_table_, kTermAbs);
        put_u32(term_table_, term_ids_.at(item.t.bound_var().node_id()));
        put_u32(term_table_, term_ids_.at(item.t.body().node_id()));
        break;
    }
    term_ids_.emplace(item.t.node_id(),
                      static_cast<std::uint32_t>(term_ids_.size()));
  }
  return term_ids_.at(t.node_id());
}

void Encoder::thm(const Thm& th) {
  u32(static_cast<std::uint32_t>(th.hyps().size()));
  for (const Term& h : th.hyps()) term(h);
  term(th.concl());
  u32(static_cast<std::uint32_t>(th.oracles().size()));
  for (const std::string& tag : th.oracles()) str(tag);
}

std::string Encoder::finish() const {
  std::string body;
  put_u32(body, static_cast<std::uint32_t>(type_ids_.size()));
  body += type_table_;
  put_u32(body, static_cast<std::uint32_t>(term_ids_.size()));
  body += term_table_;
  body += payload_;

  std::string out(kMagic, sizeof kMagic);
  put_u32(out, kSerializeVersion);
  put_u64(out, fnv1a64(body));
  out += body;
  return out;
}

// --- Decoder ---------------------------------------------------------------

Decoder::Decoder(std::string_view bytes) : data_(bytes) {
  if (data_.size() < kHeaderBytes) fail("truncated header");
  if (std::memcmp(data_.data(), kMagic, sizeof kMagic) != 0) {
    fail("bad magic (not a cache file)");
  }
  pos_ = sizeof kMagic;
  std::uint32_t version = u32();
  if (version != kSerializeVersion) {
    fail("version skew (file v" + std::to_string(version) + ", expected v" +
         std::to_string(kSerializeVersion) + ")");
  }
  std::uint64_t checksum = u64();
  if (checksum != fnv1a64(data_.substr(pos_))) fail("checksum mismatch");
  parse_tables();
}

void Decoder::need(std::size_t n) const {
  if (data_.size() - pos_ < n) fail("truncated input");
}

std::uint8_t Decoder::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t Decoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Decoder::f64() {
  std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Decoder::str() {
  std::uint32_t len = u32();
  need(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

const Type& Decoder::type_at(std::uint32_t idx) const {
  if (idx >= types_.size()) fail("type index out of range");
  return types_[idx];
}

const Term& Decoder::term_at(std::uint32_t idx) const {
  if (idx >= terms_.size()) fail("term index out of range");
  return terms_[idx];
}

Type Decoder::type() { return type_at(u32()); }
Term Decoder::term() { return term_at(u32()); }

void Decoder::parse_tables() {
  // Re-intern through the public constructors: each reconstructed node is
  // the canonical one for its structure, so identities, alpha hashes and
  // cached per-node attributes match whatever the process builds natively.
  // Counts are not trusted with reserve(): every iteration consumes at
  // least one byte, so a fabricated huge count dies on the bounds check
  // long before memory does.  The kernel constructors type-check; their
  // KernelErrors surface on genuinely ill-formed (yet checksum-valid)
  // content, which only a crafted file can contain — map them to
  // SerializeError so loaders treat it exactly like any other corruption.
  std::uint32_t n_types = u32();
  for (std::uint32_t i = 0; i < n_types; ++i) {
    std::uint8_t kind = u8();
    if (kind == kTypeVar) {
      types_.push_back(Type::var(str()));
    } else if (kind == kTypeApp) {
      std::string name = str();
      std::uint32_t argc = u32();
      std::vector<Type> args;
      for (std::uint32_t a = 0; a < argc; ++a) {
        std::uint32_t idx = u32();
        if (idx >= i) fail("type record references a later node");
        args.push_back(types_[idx]);
      }
      types_.push_back(Type::app(std::move(name), std::move(args)));
    } else {
      fail("bad type record kind");
    }
  }

  std::uint32_t n_terms = u32();
  for (std::uint32_t i = 0; i < n_terms; ++i) {
    std::uint8_t kind = u8();
    try {
      if (kind == kTermVar || kind == kTermConst) {
        std::string name = str();
        const Type& ty = type_at(u32());
        terms_.push_back(kind == kTermVar ? Term::var(std::move(name), ty)
                                          : Term::constant(std::move(name),
                                                           ty));
      } else if (kind == kTermComb || kind == kTermAbs) {
        std::uint32_t a = u32();
        std::uint32_t b = u32();
        if (a >= i || b >= i) fail("term record references a later node");
        if (kind == kTermComb) {
          terms_.push_back(Term::comb(terms_[a], terms_[b]));
        } else {
          if (!terms_[a].is_var()) fail("abs binder is not a variable");
          terms_.push_back(Term::abs(terms_[a], terms_[b]));
        }
      } else {
        fail("bad term record kind");
      }
    } catch (const SerializeError&) {
      throw;
    } catch (const KernelError& e) {
      fail(std::string("ill-typed term record (") + e.what() + ")");
    }
  }
}

Thm Decoder::thm() {
  // Reconstruction bypasses the inference rules, so re-validate the Thm
  // invariants the rules would have enforced: boolean hypotheses in strict
  // canonical order, boolean conclusion.  The trust argument for admitting
  // the result as a theorem is the file's provenance (this process — or an
  // earlier run of this binary — derived and saved it; the checksum and
  // version gate guard the bytes in between), the same extension of the
  // LCF story that lets proof assistants reload checked theory files.
  // Oracle tags round-trip, so a pure theorem stays pure and a tainted one
  // keeps its taint.
  std::uint32_t n_hyps = u32();
  std::vector<Term> hyps;
  for (std::uint32_t i = 0; i < n_hyps; ++i) {
    Term h = term();
    if (h.type() != bool_ty()) fail("non-boolean hypothesis");
    if (!hyps.empty() && Term::compare(hyps.back(), h) >= 0) {
      fail("hypotheses out of canonical order");
    }
    hyps.push_back(std::move(h));
  }
  Term concl = term();
  if (concl.type() != bool_ty()) fail("non-boolean conclusion");
  std::uint32_t n_tags = u32();
  std::set<std::string> oracles;
  for (std::uint32_t i = 0; i < n_tags; ++i) oracles.insert(str());
  return Thm(std::move(hyps), std::move(concl), std::move(oracles));
}

}  // namespace eda::kernel
