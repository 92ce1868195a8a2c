#pragma once

// Read/write-set extraction: per-production footprints, the classes each
// production reads (positive or negated CEs) and writes
// (make/modify/remove). rete_static derives class traffic and the production
// dependency graph from them. Unlike ops5::analyze_bindings, extraction never
// throws on malformed productions, so the linter can share the two helpers
// at the bottom (positive_ce, collect_expr_variables).

#include <cstdint>
#include <vector>

#include "ops5/production.hpp"

namespace psmsys::analysis {

enum class AccessKind : std::uint8_t {
  Read,         ///< positive CE match
  NegatedRead,  ///< negated CE (absence test — still schedule-sensitive)
  Make,
  Modify,
  Remove,
};

[[nodiscard]] constexpr bool is_write(AccessKind k) noexcept {
  return k == AccessKind::Make || k == AccessKind::Modify || k == AccessKind::Remove;
}

/// One class touched by a production, once per CE (reads) and once per
/// make/modify/remove (writes), in LHS then RHS order.
struct ClassAccess {
  ops5::ClassIndex cls = 0;
  AccessKind kind = AccessKind::Read;
};

struct ProductionFootprint {
  const ops5::Production* production = nullptr;
  std::vector<ClassAccess> accesses;
};

/// Extract the footprint of one production. Modify and remove targets
/// resolve through the production's positive CEs; an out-of-range index
/// contributes no access.
[[nodiscard]] ProductionFootprint footprint_of(const ops5::Production& production);

[[nodiscard]] std::vector<ProductionFootprint> program_footprints(const ops5::Program& program);

/// Append every variable referenced by `expr` (recursing through calls).
void collect_expr_variables(const ops5::Expr& expr, std::vector<ops5::VariableId>& out);

/// The `index`-th (1-based) positive CE — the modify/remove numbering — or
/// nullptr when out of range.
[[nodiscard]] const ops5::ConditionElement* positive_ce(const ops5::Production& production,
                                                        std::uint32_t index);

}  // namespace psmsys::analysis
