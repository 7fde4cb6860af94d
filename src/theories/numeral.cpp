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
            if (auto inner = dest_bits(t.rand())) {
              out = *inner * 2 + (f == "BIT1" ? 1 : 0);
            }
          } else if (f == "SUC") {
            if (auto inner = dest_bits(t.rand())) out = *inner + 1;
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

std::optional<std::uint64_t> eval_ground_num(const Term& t) {
  if (auto n = dest_numeral(t)) return n;
  if (t.is_const() && t.name() == "_0") return 0ULL;
  if (!t.is_comb()) return std::nullopt;
  auto [head, args] = kernel::strip_comb(t);
  if (!head.is_const()) return std::nullopt;
  const std::string& op = head.name();
  if (op == "SUC" && args.size() == 1) {
    auto a = eval_ground_num(args[0]);
    if (!a) return std::nullopt;
    return *a + 1;
  }
  if ((op == "NUMERAL" || op == "BIT0" || op == "BIT1") && args.size() == 1) {
    return dest_bits(t);
  }
  if (args.size() == 2) {
    auto a = eval_ground_num(args[0]);
    auto b = eval_ground_num(args[1]);
    if (!a || !b) return std::nullopt;
    if (op == "+") return *a + *b;
    if (op == "BITAND") return *a & *b;
    if (op == "BITOR") return *a | *b;
    if (op == "BITXOR") return *a ^ *b;
    if (op == "-") return *a >= *b ? *a - *b : 0;  // truncating subtraction
    if (op == "*") return *a * *b;
    if (op == "DIV") return *b == 0 ? std::optional<std::uint64_t>{}
                                    : std::optional<std::uint64_t>{*a / *b};
    if (op == "MOD") return *b == 0 ? std::optional<std::uint64_t>{}
                                    : std::optional<std::uint64_t>{*a % *b};
    if (op == "EXP") {
      std::uint64_t r = 1;
      for (std::uint64_t i = 0; i < *b; ++i) {
        if (*a != 0 && r > UINT64_MAX / *a) return std::nullopt;  // overflow
        r *= *a;
      }
      return r;
    }
  }
  return std::nullopt;
}

std::optional<bool> eval_ground_bool(const Term& t) {
  if (!t.is_comb()) return std::nullopt;
  auto [head, args] = kernel::strip_comb(t);
  if (!head.is_const() || args.size() != 2) return std::nullopt;
  const std::string& op = head.name();
  if (op != "=" && op != "<" && op != "<=") return std::nullopt;
  if (op == "=" && args[0].type() != num_ty()) return std::nullopt;
  auto a = eval_ground_num(args[0]);
  auto b = eval_ground_num(args[1]);
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
