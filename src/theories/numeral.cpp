#include "theories/numeral.h"

#include "kernel/memo.h"
#include "kernel/once.h"
#include "kernel/signature.h"
#include "logic/bool_thms.h"

namespace eda::thy {

using kernel::fun_ty;
using kernel::KernelError;
using kernel::mk_eq;
using kernel::num_ty;
using kernel::Signature;
using kernel::Term;
using kernel::Thm;

void init_numeral() {
  // Thread-safe, re-entry-tolerant one-time init (kernel/once.h).
  static kernel::InitOnce once;
  once.run([] {
    init_num();
    Signature& sig = Signature::instance();
    Term n = Term::var("n", num_ty());
    // NUMERAL = \n. n          (presentation tag)
    sig.new_definition("NUMERAL", Term::abs(n, n));
    // BIT0 = \n. n + n
    sig.new_definition("BIT0", Term::abs(n, mk_arith("+", n, n)));
    // BIT1 = \n. SUC (n + n)
    sig.new_definition("BIT1", Term::abs(n, mk_suc(mk_arith("+", n, n))));
  });
}

namespace {

Term mk_unary(const char* name, const Term& arg) {
  return Term::comb(Term::constant(name, fun_ty(num_ty(), num_ty())), arg);
}

Term mk_bits(std::uint64_t n) {
  if (n == 0) return Term::constant("_0", num_ty());
  return mk_unary((n & 1) ? "BIT1" : "BIT0", mk_bits(n >> 1));
}

std::optional<std::uint64_t> dest_bits(const Term& t) {
  // Interned nodes are permanent, so destructed values can be memoised on
  // node identity; numeral chains share suffixes heavily under hash-consing,
  // making repeated destruction O(1) amortised.  Sharded + reader-writer
  // locked so parallel proof replay shares one table (kernel/memo.h).
  static auto* memo = new kernel::ConcurrentMemo<
      const void*, std::optional<std::uint64_t>>();
  return memo->get_or_compute(
      t.node_id(), [&]() -> std::optional<std::uint64_t> {
        std::optional<std::uint64_t> out;
        if (t.is_const() && t.name() == "_0") {
          out = 0ULL;
        } else if (t.is_comb() && t.rator().is_const()) {
          const std::string& f = t.rator().name();
          if (f == "BIT0" || f == "BIT1") {
            // A chain past 64 bits has no uint64_t value.
            std::uint64_t bit = f == "BIT1" ? 1 : 0;
            auto inner = dest_bits(t.rand());
            if (inner && *inner <= (UINT64_MAX - bit) / 2) {
              out = *inner * 2 + bit;
            }
          } else if (f == "SUC") {
            auto inner = dest_bits(t.rand());
            if (inner && *inner < UINT64_MAX) out = *inner + 1;
          } else if (f == "NUMERAL") {
            out = dest_bits(t.rand());
          }
        }
        return out;
      });
}

}  // namespace

Term mk_numeral(std::uint64_t n) {
  init_numeral();
  // Numerals are the single most-constructed term family (every wrap /
  // modulus / simulation step builds them); cache the interned term per
  // value.  Concurrent: racing builders intern the same canonical node, so
  // whichever entry lands first is the right one.
  static auto* cache = new kernel::ConcurrentMemo<std::uint64_t, Term>();
  return cache->get_or_compute(
      n, [&] { return mk_unary("NUMERAL", mk_bits(n)); });
}

std::optional<std::uint64_t> dest_numeral(const Term& t) {
  if (t.is_comb() && t.rator().is_const() &&
      t.rator().name() == "NUMERAL") {
    return dest_bits(t.rand());
  }
  if (t.is_const() && t.name() == "_0") return 0ULL;
  return std::nullopt;
}

namespace {

// Ground terms are evaluated exactly, in 128 bits with every step checked,
// so a subterm whose value needs more than 64 bits (a product of two 62-bit
// registers) still evaluates inside a parent that brings it back into
// range (its MOD 2^w).  Only a value that fits a numeral is ever admitted.
using Wide = unsigned __int128;
using WideOpt = std::optional<Wide>;

WideOpt checked_add(Wide a, Wide b) {
  Wide r = 0;
  if (__builtin_add_overflow(a, b, &r)) return std::nullopt;
  return r;
}

WideOpt checked_mul(Wide a, Wide b) {
  Wide r = 0;
  if (__builtin_mul_overflow(a, b, &r)) return std::nullopt;
  return r;
}

/// base^exp by squaring: O(log exp) steps, so `1 EXP 2^62` returns at once.
WideOpt checked_pow(Wide base, Wide exp) {
  if (exp == 0) return Wide{1};
  if (base <= 1) return base;
  Wide r = 1;
  for (;;) {
    if (exp & 1) {
      WideOpt next = checked_mul(r, base);
      if (!next) return std::nullopt;
      r = *next;
    }
    exp >>= 1;
    if (exp == 0) return r;
    // Some remaining factor is at least base^2, so overflow here means the
    // result overflows too.
    WideOpt sq = checked_mul(base, base);
    if (!sq) return std::nullopt;
    base = *sq;
  }
}

WideOpt eval_wide(const Term& t) {
  if (auto n = dest_numeral(t)) return Wide{*n};
  if (t.is_const() && t.name() == "_0") return Wide{0};
  if (!t.is_comb()) return std::nullopt;
  auto [head, args] = kernel::strip_comb(t);
  if (!head.is_const()) return std::nullopt;
  const std::string& op = head.name();
  if (op == "SUC" && args.size() == 1) {
    WideOpt a = eval_wide(args[0]);
    if (!a) return std::nullopt;
    return checked_add(*a, 1);
  }
  if ((op == "NUMERAL" || op == "BIT0" || op == "BIT1") && args.size() == 1) {
    if (auto v = dest_bits(t)) return Wide{*v};
    return std::nullopt;
  }
  if (args.size() == 2) {
    WideOpt a = eval_wide(args[0]);
    WideOpt b = eval_wide(args[1]);
    if (!a || !b) return std::nullopt;
    if (op == "+") return checked_add(*a, *b);
    if (op == "BITAND") return *a & *b;
    if (op == "BITOR") return *a | *b;
    if (op == "BITXOR") return *a ^ *b;
    if (op == "-") return *a >= *b ? *a - *b : 0;  // truncating subtraction
    if (op == "*") return checked_mul(*a, *b);
    if (op == "DIV") return *b == 0 ? WideOpt{} : WideOpt{*a / *b};
    if (op == "MOD") return *b == 0 ? WideOpt{} : WideOpt{*a % *b};
    if (op == "EXP") return checked_pow(*a, *b);
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::uint64_t> eval_ground_num(const Term& t) {
  WideOpt v = eval_wide(t);
  if (!v || *v > UINT64_MAX) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

std::optional<bool> eval_ground_bool(const Term& t) {
  if (!t.is_comb()) return std::nullopt;
  auto [head, args] = kernel::strip_comb(t);
  if (!head.is_const() || args.size() != 2) return std::nullopt;
  const std::string& op = head.name();
  if (op != "=" && op != "<" && op != "<=") return std::nullopt;
  if (op == "=" && args[0].type() != num_ty()) return std::nullopt;
  WideOpt a = eval_wide(args[0]);
  WideOpt b = eval_wide(args[1]);
  if (!a || !b) return std::nullopt;
  if (op == "=") return *a == *b;
  if (op == "<") return *a < *b;
  return *a <= *b;
}

Thm num_compute_conv(const Term& t) {
  init_numeral();
  logic::init_bool();
  if (t.type() == num_ty()) {
    // Refuse numerals and their internals (BIT0/BIT1/_0 chains): they are
    // already values, and rewriting inside them would not terminate.
    if (dest_numeral(t)) {
      throw logic::ConvError("num_compute_conv: already a numeral");
    }
    if (t.is_const() && t.name() == "_0") {
      throw logic::ConvError("num_compute_conv: already a numeral");
    }
    if (t.is_comb() && t.rator().is_const() &&
        (t.rator().name() == "BIT0" || t.rator().name() == "BIT1" ||
         t.rator().name() == "NUMERAL")) {
      throw logic::ConvError("num_compute_conv: numeral internals");
    }
    auto v = eval_ground_num(t);
    if (!v) {
      // Declines carry no printed term (see rewr_conv): callers such as
      // top_depth_conv discard them at nearly every node.
      throw logic::ConvError("num_compute_conv: not a ground numeric term");
    }
    return kernel::Oracle::admit(kNumComputeTag, mk_eq(t, mk_numeral(*v)));
  }
  if (t.type() == kernel::bool_ty()) {
    auto v = eval_ground_bool(t);
    if (!v) {
      throw logic::ConvError("num_compute_conv: not a ground predicate");
    }
    Term val = *v ? logic::truth_tm() : logic::falsity_tm();
    return kernel::Oracle::admit(kNumComputeTag, mk_eq(t, val));
  }
  throw logic::ConvError("num_compute_conv: unsupported type");
}

}  // namespace eda::thy
