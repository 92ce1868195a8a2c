#pragma once

// Instrumentation counters for the OPS5/Rete engine.
//
// These mirror the measurements the paper relies on: production firings,
// RHS actions (Table 8), match vs non-match cost split (Sections 3.1 and
// 6.3), and per-cycle match effort (the quantity that bounds match
// parallelism).

#include <cstdint>

#include "util/work_units.hpp"

namespace psmsys::util {

/// Cost charged per elementary operation (in work units). These are relative
/// weights, not host cycles; they make match cost dominated by join activity
/// (as in real Rete) and RHS cost dominated by external geometry. Every
/// golden and reproduced table is priced with them (DESIGN.md §6).
namespace cost {
inline constexpr WorkUnits kAlphaTest = 2;       ///< one constant test in the alpha net
inline constexpr WorkUnits kAlphaMemInsert = 2;  ///< insertion/removal in an alpha memory
inline constexpr WorkUnits kJoinProbe = 4;       ///< one token×WME consistency probe
inline constexpr WorkUnits kJoinTest = 1;        ///< one variable-binding equality test
inline constexpr WorkUnits kTokenOp = 4;         ///< beta-memory token create/delete
inline constexpr WorkUnits kNegativeOp = 3;      ///< negative-node bookkeeping
inline constexpr WorkUnits kConflictSetOp = 4;   ///< conflict-set insert/remove
inline constexpr WorkUnits kResolvePerInst = 2;  ///< conflict resolution, per instantiation
inline constexpr WorkUnits kRhsAction = 8;       ///< one make/remove/modify
inline constexpr WorkUnits kGeometryFlop = 1;    ///< one geometry arithmetic op (external call)
}  // namespace cost

/// Aggregated work counters for one engine run (or one task).
struct WorkCounters {
  // --- match side (parallelizable across match processes) ---
  WorkUnits match_cost = 0;        ///< total wu spent in the Rete network
  std::uint64_t alpha_tests = 0;
  std::uint64_t alpha_activations = 0;
  std::uint64_t join_probes = 0;
  std::uint64_t tokens_created = 0;
  std::uint64_t tokens_deleted = 0;

  // --- sequential side ---
  WorkUnits resolve_cost = 0;      ///< conflict resolution wu
  WorkUnits rhs_cost = 0;          ///< RHS actions incl. external geometry wu
  std::uint64_t firings = 0;       ///< production firings (Table 8 "prods fired")
  std::uint64_t rhs_actions = 0;   ///< RHS actions (Table 8 "RHS actions")
  std::uint64_t wmes_added = 0;
  std::uint64_t wmes_removed = 0;
  std::uint64_t cycles = 0;        ///< recognize-act cycles executed

  [[nodiscard]] WorkUnits total_cost() const noexcept {
    return match_cost + resolve_cost + rhs_cost;
  }

  /// Fraction of total cost in match — the Amdahl bound for match parallelism.
  [[nodiscard]] double match_fraction() const noexcept {
    const WorkUnits t = total_cost();
    return t ? static_cast<double>(match_cost) / static_cast<double>(t) : 0.0;
  }

  WorkCounters& operator+=(const WorkCounters& o) noexcept {
    match_cost += o.match_cost;
    alpha_tests += o.alpha_tests;
    alpha_activations += o.alpha_activations;
    join_probes += o.join_probes;
    tokens_created += o.tokens_created;
    tokens_deleted += o.tokens_deleted;
    resolve_cost += o.resolve_cost;
    rhs_cost += o.rhs_cost;
    firings += o.firings;
    rhs_actions += o.rhs_actions;
    wmes_added += o.wmes_added;
    wmes_removed += o.wmes_removed;
    cycles += o.cycles;
    return *this;
  }
};

}  // namespace psmsys::util
