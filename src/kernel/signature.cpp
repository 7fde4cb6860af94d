#include "kernel/signature.h"

#include <mutex>

namespace eda::kernel {

Signature& Signature::instance() {
  static Signature sig;
  return sig;
}

Signature::Signature() {
  // Primitive signature of the logic: bool, fun and polymorphic equality.
  type_ops_.emplace("bool", 0);
  type_ops_.emplace("fun", 2);
  consts_.emplace("=", fun_ty(alpha_ty(), fun_ty(alpha_ty(), bool_ty())));
}

void Signature::declare_type(const std::string& name, std::size_t arity) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = type_ops_.emplace(name, arity);
  if (!inserted && it->second != arity) {
    throw KernelError("declare_type: arity clash for " + name);
  }
}

bool Signature::has_type(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return type_ops_.count(name) > 0;
}

std::size_t Signature::type_arity(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = type_ops_.find(name);
  if (it == type_ops_.end()) {
    throw KernelError("type_arity: undeclared type operator " + name);
  }
  return it->second;
}

void Signature::check_type_unlocked(const Type& ty) const {
  if (ty.is_var()) return;
  auto it = type_ops_.find(ty.name());
  if (it == type_ops_.end()) {
    throw KernelError("check_type: undeclared type operator " + ty.name());
  }
  if (it->second != ty.args().size()) {
    throw KernelError("check_type: wrong arity for " + ty.name());
  }
  for (const Type& a : ty.args()) check_type_unlocked(a);
}

void Signature::check_type(const Type& ty) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  check_type_unlocked(ty);
}

void Signature::declare_const_unlocked(const std::string& name,
                                       const Type& generic_ty) {
  check_type_unlocked(generic_ty);
  auto [it, inserted] = consts_.emplace(name, generic_ty);
  if (!inserted && it->second != generic_ty) {
    throw KernelError("declare_const: type clash for " + name);
  }
}

void Signature::declare_const(const std::string& name,
                              const Type& generic_ty) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  declare_const_unlocked(name, generic_ty);
}

bool Signature::has_const(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return consts_.count(name) > 0;
}

Type Signature::const_type_unlocked(const std::string& name) const {
  auto it = consts_.find(name);
  if (it == consts_.end()) {
    throw KernelError("const_type: undeclared constant " + name);
  }
  return it->second;
}

Type Signature::const_type(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return const_type_unlocked(name);
}

Term Signature::mk_const(const std::string& name) const {
  // const_type takes the shared lock; interning happens outside it.
  return Term::constant(name, const_type(name));
}

Term Signature::mk_const_at(const std::string& name,
                            const Type& concrete) const {
  Type generic = const_type(name);
  TypeSubst theta;
  if (!type_match(generic, concrete, theta)) {
    throw KernelError("mk_const_at: " + concrete.to_string() +
                      " is not an instance of the generic type " +
                      generic.to_string() + " of " + name);
  }
  return Term::constant(name, concrete);
}

Thm Signature::new_definition(const std::string& name, const Term& rhs) {
  if (!free_vars_set(rhs).empty()) {
    throw KernelError("new_definition: right-hand side has free variables");
  }
  // Soundness side condition: every type variable of the body must appear
  // in the type of the new constant, otherwise distinct instances would be
  // forced equal.
  std::set<std::string> body_tyvars, ty_tyvars;
  collect_term_type_vars(rhs, body_tyvars);
  rhs.type().collect_vars(ty_tyvars);
  for (const std::string& v : body_tyvars) {
    if (ty_tyvars.count(v) == 0) {
      throw KernelError("new_definition: type variable " + v +
                        " of the body does not occur in the constant type");
    }
  }
  std::string key = "DEF:" + name;
  Term def_eq = mk_eq(Term::constant(name, rhs.type()), rhs);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (auto it = theorems_.find(key); it != theorems_.end()) {
    if (it->second.concl() == def_eq) return it->second;
    throw KernelError("new_definition: conflicting redefinition of " + name);
  }
  if (consts_.count(name) > 0) {
    throw KernelError("new_definition: constant already declared: " + name);
  }
  declare_const_unlocked(name, rhs.type());
  Thm th({}, def_eq, {});
  theorems_.emplace(key, th);
  return th;
}

Thm Signature::new_axiom(const std::string& thm_name, const Term& prop) {
  if (prop.type() != bool_ty()) {
    throw KernelError("new_axiom: formula is not boolean");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (auto it = axioms_.find(thm_name); it != axioms_.end()) {
    if (it->second.concl() == prop) return it->second;
    throw KernelError("new_axiom: conflicting axiom " + thm_name);
  }
  Thm th({}, prop, {});
  axioms_.emplace(thm_name, th);
  theorems_.emplace(thm_name, th);
  return th;
}

std::optional<Thm> Signature::find_theorem(const std::string& thm_name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = theorems_.find(thm_name);
  if (it == theorems_.end()) return std::nullopt;
  return it->second;
}

Thm Signature::theorem(const std::string& thm_name) const {
  auto th = find_theorem(thm_name);
  if (!th) throw KernelError("theorem: unknown theorem " + thm_name);
  return *th;
}

void Signature::store_theorem(const std::string& thm_name, const Thm& th) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = theorems_.emplace(thm_name, th);
  if (!inserted) {
    if (it->second.concl() == th.concl()) return;
    throw KernelError("store_theorem: name clash for " + thm_name);
  }
}

std::map<std::string, Thm> Signature::axioms() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return axioms_;
}

}  // namespace eda::kernel
