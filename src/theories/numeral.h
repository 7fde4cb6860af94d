#pragma once

#include <cstdint>
#include <optional>

#include "logic/conv.h"
#include "theories/num_theory.h"

namespace eda::thy {

/// Binary numerals in HOL-Light style: `NUMERAL (BIT1 (BIT0 _0))` etc.
/// NUMERAL is an identity tag, BIT0 n = n + n, BIT1 n = SUC (n + n) — all
/// three are honest *definitions* over the num theory, so every numeral
/// term has its standard meaning.
void init_numeral();

/// Build / destruct decimal numerals.
kernel::Term mk_numeral(std::uint64_t n);
std::optional<std::uint64_t> dest_numeral(const kernel::Term& t);

/// Ground arithmetic evaluation conversion.
///
/// For a *ground* term built from numerals, `_0`, SUC and the arithmetic
/// operators (+, -, *, DIV, MOD, EXP, <, <=, = at num), returns the theorem
/// `|- t = v` where v is the value (a numeral, or T/F for predicates).
///
/// The theorem is produced through the kernel Oracle with tag
/// `NUM_COMPUTE`: evaluating f(q) on concrete register contents (paper,
/// retiming step 4) uses machine arithmetic for speed, and the tag makes
/// that provenance visible on every theorem that depends on it.  All
/// *structural* reasoning (the retiming theorem itself) stays oracle-free.
kernel::Thm num_compute_conv(const kernel::Term& t);

/// Evaluate a ground term to a number without producing a theorem (used by
/// the evaluator and by tests to cross-check the oracle).  Evaluation is
/// exact: every step is checked in 128 bits and EXP goes by squaring, and
/// a term whose value does not fit 64 bits (or whose steps overflow 128)
/// has no value, so the oracle declines it rather than admit a wrapped one.
std::optional<std::uint64_t> eval_ground_num(const kernel::Term& t);
std::optional<bool> eval_ground_bool(const kernel::Term& t);

/// Oracle tag used by num_compute_conv.
inline constexpr const char* kNumComputeTag = "NUM_COMPUTE";

}  // namespace eda::thy
