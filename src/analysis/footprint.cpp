#include "analysis/footprint.hpp"

namespace psmsys::analysis {

using ops5::ConditionElement;
using ops5::Expr;
using ops5::MakeAction;
using ops5::ModifyAction;
using ops5::Production;
using ops5::RemoveAction;
using ops5::VariableId;

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
  for (const auto& ce : production.lhs()) {
    fp.accesses.push_back({ce.cls, ce.negated ? AccessKind::NegatedRead : AccessKind::Read});
  }
  for (const auto& action : production.rhs()) {
    if (const auto* make = std::get_if<MakeAction>(&action)) {
      fp.accesses.push_back({make->cls, AccessKind::Make});
    } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
      if (const ConditionElement* target = positive_ce(production, mod->ce_index)) {
        fp.accesses.push_back({target->cls, AccessKind::Modify});
      }
    } else if (const auto* rem = std::get_if<RemoveAction>(&action)) {
      if (const ConditionElement* target = positive_ce(production, rem->ce_index)) {
        fp.accesses.push_back({target->cls, AccessKind::Remove});
      }
    }
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
