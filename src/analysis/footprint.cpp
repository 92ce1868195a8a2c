#include "analysis/footprint.hpp"

#include <algorithm>

namespace psmsys::analysis {

namespace {

using ops5::ConditionElement;
using ops5::Expr;
using ops5::MakeAction;
using ops5::ModifyAction;
using ops5::Production;
using ops5::RemoveAction;
using ops5::SlotIndex;
using ops5::VariableId;

void sort_unique(std::vector<SlotIndex>& slots) {
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
}

}  // namespace

void collect_expr_variables(const Expr& expr, std::vector<VariableId>& out) {
  if (const auto* var = std::get_if<ops5::VarRef>(&expr.node)) {
    out.push_back(var->var);
  } else if (const auto* call = std::get_if<ops5::CallExpr>(&expr.node)) {
    for (const auto& arg : call->args) collect_expr_variables(arg, out);
  }
}

const ConditionElement* positive_ce(const Production& production, std::uint32_t index) {
  std::uint32_t seen = 0;
  for (const auto& ce : production.lhs()) {
    if (ce.negated) continue;
    if (++seen == index) return &ce;
  }
  return nullptr;
}

ProductionFootprint footprint_of(const Production& production) {
  ProductionFootprint fp;
  fp.production = &production;

  std::uint32_t ce_index = 0;
  for (const auto& ce : production.lhs()) {
    ClassAccess access;
    access.cls = ce.cls;
    access.kind = ce.negated ? AccessKind::NegatedRead : AccessKind::Read;
    access.position = ce_index;
    for (const auto& test : ce.tests) access.slots.push_back(test.slot);
    sort_unique(access.slots);
    fp.accesses.push_back(std::move(access));
    ++ce_index;
  }

  std::uint32_t action_index = 0;
  for (const auto& action : production.rhs()) {
    if (const auto* make = std::get_if<MakeAction>(&action)) {
      ClassAccess access;
      access.cls = make->cls;
      access.kind = AccessKind::Make;
      access.position = action_index;
      for (const auto& [slot, expr] : make->sets) access.slots.push_back(slot);
      sort_unique(access.slots);
      fp.accesses.push_back(std::move(access));
    } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
      const ConditionElement* target = positive_ce(production, mod->ce_index);
      if (target != nullptr) {
        ClassAccess access;
        access.cls = target->cls;
        access.kind = AccessKind::Modify;
        access.position = action_index;
        for (const auto& [slot, expr] : mod->sets) access.slots.push_back(slot);
        sort_unique(access.slots);
        fp.accesses.push_back(std::move(access));
      }
    } else if (const auto* rem = std::get_if<RemoveAction>(&action)) {
      const ConditionElement* target = positive_ce(production, rem->ce_index);
      if (target != nullptr) {
        fp.accesses.push_back(ClassAccess{target->cls, AccessKind::Remove, action_index, {}});
      }
    }
    ++action_index;
  }

  return fp;
}

std::vector<ProductionFootprint> program_footprints(const ops5::Program& program) {
  std::vector<ProductionFootprint> out;
  out.reserve(program.productions().size());
  for (const auto& p : program.productions()) out.push_back(footprint_of(p));
  return out;
}

}  // namespace psmsys::analysis
