#include "kernel/printer.h"

#include <climits>
#include <map>
#include <optional>

namespace eda::kernel {

namespace {

struct Fixity {
  int prec;
  bool right_assoc;
  std::string display;
};

// Higher precedence binds tighter.  Application is 100.
const std::map<std::string, Fixity>& infixes() {
  static const std::map<std::string, Fixity> table = {
      {"=", {30, false, "="}},     {"<=>", {25, false, "<=>"}},
      {"==>", {26, true, "==>"}},  {"\\/", {27, true, "\\/"}},
      {"/\\", {28, true, "/\\"}},  {"<", {32, false, "<"}},
      {"<=", {32, false, "<="}},   {"+", {40, true, "+"}},
      {"-", {40, false, "-"}},     {"*", {42, true, "*"}},
      {"DIV", {44, false, "DIV"}}, {"MOD", {44, false, "MOD"}},
      {"EXP", {46, true, "EXP"}},  {",", {20, true, ","}},
  };
  return table;
}

bool is_binder_const(const std::string& name) {
  return name == "!" || name == "?";
}

/// Try to read a numeral term `NUMERAL bits` (or a bare `_0`) as a number.
std::optional<unsigned long long> dest_numeral_bits(const Term& t) {
  if (t.is_const() && t.name() == "_0") return 0ULL;
  if (t.is_comb() && t.rator().is_const()) {
    const std::string& f = t.rator().name();
    if (f != "BIT0" && f != "BIT1") return std::nullopt;
    auto inner = dest_numeral_bits(t.rand());
    // A chain past 64 bits has no value here; its structure is printed.
    unsigned long long bit = f == "BIT1" ? 1 : 0;
    if (!inner || *inner > (ULLONG_MAX - bit) / 2) return std::nullopt;
    return *inner * 2 + bit;
  }
  return std::nullopt;
}

std::optional<unsigned long long> dest_numeral(const Term& t) {
  if (t.is_comb() && t.rator().is_const() && t.rator().name() == "NUMERAL") {
    return dest_numeral_bits(t.rand());
  }
  return std::nullopt;
}

std::string print_term(const Term& t, int prec);

std::string print_app(const Term& t, int prec) {
  auto [head, args] = strip_comb(t);

  if (head.is_const()) {
    const std::string& name = head.name();
    // Equality at bool renders as <=>.
    std::string lookup = name;
    if (name == "=" && args.size() == 2 && args[0].type() == bool_ty()) {
      lookup = "<=>";
    }
    if (auto it = infixes().find(lookup); it != infixes().end() &&
                                          args.size() == 2) {
      const Fixity& fx = it->second;
      int lp = fx.prec + (fx.right_assoc ? 1 : 1);
      int rp = fx.prec + (fx.right_assoc ? 0 : 1);
      std::string body;
      if (lookup == ",") {
        body = print_term(args[0], lp) + ", " + print_term(args[1], rp);
        return "(" + body + ")";
      }
      body = print_term(args[0], lp) + " " + fx.display + " " +
             print_term(args[1], rp);
      if (fx.prec < prec) body = "(" + body + ")";
      return body;
    }
    if (is_binder_const(name) && args.size() == 1 && args[0].is_abs()) {
      std::string body = name + args[0].bound_var().name() + ". " +
                         print_term(args[0].body(), 0);
      if (prec > 0) body = "(" + body + ")";
      return body;
    }
    if (name == "~" && args.size() == 1) {
      return "~" + print_term(args[0], 99);
    }
    if (name == "COND" && args.size() == 3) {
      std::string body = "if " + print_term(args[0], 0) + " then " +
                         print_term(args[1], 0) + " else " +
                         print_term(args[2], 0);
      if (prec > 0) body = "(" + body + ")";
      return body;
    }
    if (name == "NUMERAL") {
      if (auto n = dest_numeral(t)) return std::to_string(*n);
    }
  }

  // Plain application chain.
  std::string s = print_term(head, 100);
  for (const Term& a : args) s += " " + print_term(a, 101);
  if (prec > 100) s = "(" + s + ")";
  return s;
}

std::string print_term(const Term& t, int prec) {
  switch (t.kind()) {
    case Term::Kind::Var:
      return t.name();
    case Term::Kind::Const: {
      if (t.name() == "_0") return "0";
      if (infixes().count(t.name()) > 0 || is_binder_const(t.name())) {
        return "(" + t.name() + ")";
      }
      return t.name();
    }
    case Term::Kind::Comb:
      return print_app(t, prec);
    case Term::Kind::Abs: {
      std::string body =
          "\\" + t.bound_var().name() + ". " + print_term(t.body(), 0);
      if (prec > 0) body = "(" + body + ")";
      return body;
    }
  }
  return "?";
}

}  // namespace

std::string pretty(const Term& t) { return print_term(t, 0); }

std::string pretty(const Thm& th) {
  std::string s;
  for (std::size_t i = 0; i < th.hyps().size(); ++i) {
    if (i > 0) s += ", ";
    s += pretty(th.hyps()[i]);
  }
  if (!th.hyps().empty()) s += " ";
  s += "|- " + pretty(th.concl());
  if (!th.oracles().empty()) {
    s += "   [oracles:";
    for (const std::string& t : th.oracles()) s += " " + t;
    s += "]";
  }
  return s;
}

std::string pretty_typed(const Term& t) {
  return pretty(t) + " : " + t.type().to_string();
}

}  // namespace eda::kernel
