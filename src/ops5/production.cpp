#include "ops5/production.hpp"

#include <cmath>
#include <stdexcept>

namespace psmsys::ops5 {

Production::Production(Symbol name, std::vector<ConditionElement> lhs, std::vector<Action> rhs)
    : name_(name), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
  if (lhs_.empty()) throw std::invalid_argument("production needs >= 1 condition element");
  if (lhs_.front().negated) {
    throw std::invalid_argument("first condition element must be positive");
  }
  for (const auto& ce : lhs_) {
    if (!ce.negated) ++positive_ces_;
    specificity_ += 1 + ce.tests.size();  // class test counts as one
  }
}

ClassIndex Program::declare_class(std::string_view name,
                                  std::span<const std::string_view> attributes) {
  if (frozen_) throw std::logic_error("Program frozen; cannot declare class");
  const Symbol sym = symbols_.intern(name);
  if (class_by_symbol_.contains(index_of(sym))) {
    throw std::invalid_argument("duplicate WME class: " + std::string(name));
  }
  std::vector<Symbol> attrs;
  attrs.reserve(attributes.size());
  for (auto a : attributes) attrs.push_back(symbols_.intern(a));
  const auto idx = static_cast<ClassIndex>(classes_.size());
  classes_.emplace_back(sym, std::move(attrs));
  class_by_symbol_.emplace(index_of(sym), idx);
  return idx;
}

std::optional<ClassIndex> Program::class_index(Symbol name) const noexcept {
  if (auto it = class_by_symbol_.find(index_of(name)); it != class_by_symbol_.end()) {
    return it->second;
  }
  return std::nullopt;
}

VariableId Program::intern_variable(std::string_view name) {
  if (auto it = variable_ids_.find(std::string(name)); it != variable_ids_.end()) {
    return it->second;
  }
  if (frozen_) throw std::logic_error("Program frozen; cannot intern variable");
  const auto id = static_cast<VariableId>(variable_names_.size());
  variable_names_.emplace_back(name);
  variable_ids_.emplace(std::string(name), id);
  return id;
}

const std::string& Program::variable_name(VariableId v) const {
  return variable_names_.at(v);
}

void Program::add_production(Production p) {
  if (frozen_) throw std::logic_error("Program frozen; cannot add production");
  for (const auto& existing : productions_) {
    if (existing.name() == p.name()) {
      throw std::invalid_argument("duplicate production name: " + symbols_.name(p.name()));
    }
  }
  // Validate CE class indices and RHS CE references.
  for (const auto& ce : p.lhs()) {
    if (ce.cls >= classes_.size()) throw std::invalid_argument("CE references unknown class");
    for (const auto& t : ce.tests) {
      if (t.slot >= classes_[ce.cls].arity()) {
        throw std::invalid_argument("CE test references slot out of range");
      }
    }
  }
  const std::size_t n_pos = p.positive_ce_count();
  for (const auto& action : p.rhs()) {
    const auto check_ce = [&](std::uint32_t idx) {
      if (idx == 0 || idx > n_pos) {
        throw std::invalid_argument("RHS action references CE index out of range");
      }
    };
    if (const auto* m = std::get_if<ModifyAction>(&action)) check_ce(m->ce_index);
    if (const auto* r = std::get_if<RemoveAction>(&action)) check_ce(r->ce_index);
  }
  p.id_ = static_cast<std::uint32_t>(productions_.size());
  productions_.push_back(std::move(p));
}

const Production* Program::find_production(Symbol name) const noexcept {
  for (const auto& p : productions_) {
    if (p.name() == name) return &p;
  }
  return nullptr;
}

void Program::set_pack(std::string name, std::string version) {
  if (frozen_) throw std::logic_error("Program frozen; cannot set pack identity");
  pack_name_ = std::move(name);
  pack_version_ = std::move(version);
}

void Program::freeze() {
  frozen_ = true;
  symbols_.freeze();
}

std::optional<ArithOp> arith_op(std::string_view name) noexcept {
  if (name == "+") return ArithOp::Add;
  if (name == "-") return ArithOp::Sub;
  if (name == "*") return ArithOp::Mul;
  if (name == "//") return ArithOp::Div;
  if (name == "mod") return ArithOp::Mod;
  return std::nullopt;
}

std::optional<double> apply_arith(ArithOp op, double a, double b) noexcept {
  switch (op) {
    case ArithOp::Add: return a + b;
    case ArithOp::Sub: return a - b;
    case ArithOp::Mul: return a * b;
    case ArithOp::Div:
      if (b == 0.0) return std::nullopt;
      return std::trunc(a / b);
    case ArithOp::Mod:
      if (b == 0.0) return std::nullopt;
      return a - b * std::floor(a / b);
  }
  return std::nullopt;
}

}  // namespace psmsys::ops5
