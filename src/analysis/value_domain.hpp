#pragma once

// Whole-rule-base value-domain abstract interpreter.
//
// Infers, for every (WME class, attribute) pair, an over-approximation of the
// values that slot can ever hold at runtime: a fixpoint over the RHS
// make/modify actions of every fireable production, seeded from the classes
// the control process injects (seed classes start at Top — anything can come
// from outside; everything else starts at Bottom and only grows by being
// written). The domain lattice is, per slot:
//
//     nil-bit  x  symbolic part (Bottom | const set | Any)
//              x  numeric part  (Bottom | const set | interval | Any)
//
// Constants only enter from program literals, const sets overflow to the
// interval hull (numbers) or Any (symbols) past eight constants, and every
// join is monotone — so the ascending chains are finite and the fixpoint
// terminates without widening. A 64-round cap backs that up; a report that
// hits it is marked unconverged and carries no diagnostics.
//
// The analysis feeds the lint diagnostics AN014 (attribute type mismatch),
// AN015 (always-false condition), AN016 (infeasible join) and AN017
// (domain-narrowing modify no condition can re-match), in spam_lint and in
// the "value_domains" section of the admission verdict (admission.hpp).
//
// Soundness contract: the domains over-approximate every WME the rule base
// itself can create *plus* anything injected into a declared seed class.
// Injecting WMEs of a non-seed class from outside voids the findings — the
// same contract LintOptions::seed_classes already states for AN003/AN009.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "ops5/production.hpp"

namespace psmsys::analysis {

/// Abstract value of one (class, slot): which OPS5 scalars can appear there.
class ValueDomain {
 public:
  enum class SymPart : std::uint8_t { None, Consts, Any };
  enum class NumPart : std::uint8_t { None, Consts, Range, Any };

  /// Closed numeric interval; `integral` = every member is a whole number.
  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
    bool integral = true;
  };

  [[nodiscard]] static ValueDomain bottom() { return {}; }
  [[nodiscard]] static ValueDomain top();
  [[nodiscard]] static ValueDomain of(const ops5::Value& v);

  [[nodiscard]] bool is_bottom() const noexcept {
    return !nil_ && sym_ == SymPart::None && num_ == NumPart::None;
  }
  [[nodiscard]] bool is_top() const noexcept {
    return nil_ && sym_ == SymPart::Any && num_ == NumPart::Any;
  }
  [[nodiscard]] bool may_be_nil() const noexcept { return nil_; }
  [[nodiscard]] SymPart sym_part() const noexcept { return sym_; }
  [[nodiscard]] NumPart num_part() const noexcept { return num_; }

  /// Least upper bound; returns true when *this grew. Symbol const sets
  /// overflow to Any and numeric const sets to their interval hull past
  /// `max_constants`, keeping ascending chains finite.
  bool join_with(const ValueDomain& other, std::size_t max_constants);

  /// Could some member of the domain satisfy `pred` against `constant`?
  /// Over-approximate (false => the test is statically impossible).
  [[nodiscard]] bool may_satisfy(ops5::Predicate pred, const ops5::Value& constant) const;

  /// Could the whole OPS5 disjunction `<< v1 v2 ... >>` ever pass?
  [[nodiscard]] bool may_satisfy_disjunction(std::span<const ops5::Value> alts) const;

  /// The domain restricted to values satisfying `pred` against `constant`
  /// (used to narrow a binding variable's domain by its CE's constant tests).
  [[nodiscard]] ValueDomain narrowed(ops5::Predicate pred, const ops5::Value& constant) const;

  /// Do the two domains share at least one concrete value? Over-approximate;
  /// false proves an equality join between them infeasible.
  [[nodiscard]] bool intersects(const ValueDomain& other) const;

  /// Does the domain contain any value of `constant`'s kind (nil / symbol /
  /// number)? Distinguishes AN014 (type mismatch) from AN015 (value-disjoint).
  [[nodiscard]] bool has_kind_of(const ops5::Value& constant) const noexcept;

  /// Canonical human-readable rendering, e.g. "{nil, yes}" or
  /// "num[1..4] | sym*"; deterministic for golden/JSON output.
  [[nodiscard]] std::string render(const ops5::SymbolTable& symbols) const;

  [[nodiscard]] bool operator==(const ValueDomain& o) const noexcept;

 private:
  bool nil_ = false;
  SymPart sym_ = SymPart::None;
  std::vector<ops5::Symbol> sym_consts_;  ///< sorted, unique (SymPart::Consts)
  NumPart num_ = NumPart::None;
  std::vector<double> num_consts_;        ///< sorted, unique (NumPart::Consts)
  Interval range_;                        ///< NumPart::Range

  [[nodiscard]] bool contains(const ops5::Value& v) const;
  [[nodiscard]] bool num_nonempty() const noexcept { return num_ != NumPart::None; }
  [[nodiscard]] double num_min() const;
  [[nodiscard]] double num_max() const;
  [[nodiscard]] bool num_bounded() const noexcept { return num_ == NumPart::Consts || num_ == NumPart::Range; }
};

struct ValueDomainOptions {
  /// Classes the control process may inject from outside the rule base; they
  /// start at Top. Unset = every class is externally seedable, which makes
  /// the analysis vacuous (all Top) but sound.
  std::optional<std::vector<ops5::ClassIndex>> seed_classes;
  /// Classes the control process extracts after quiescence. Unset disables
  /// AN017 — a write nobody in the rule base reads may still be the output.
  std::optional<std::vector<ops5::ClassIndex>> output_classes;
};

struct ValueDomainReport {
  /// Inferred domains, indexed [class][slot] over the program's classes.
  std::vector<std::vector<ValueDomain>> domains;
  /// Per-class: can any WME of the class ever exist (seeded or written by a
  /// fireable production)?
  std::vector<std::uint8_t> reachable;
  /// AN014–AN017, ordered by production then check order.
  std::vector<Diagnostic> diagnostics;
  bool converged = true;
  std::size_t iterations = 0;

  [[nodiscard]] const ValueDomain& domain(ops5::ClassIndex cls, ops5::SlotIndex slot) const {
    return domains.at(cls).at(slot);
  }
};

/// Run the fixpoint and derive the AN014–AN017 diagnostics. The program must
/// be frozen.
[[nodiscard]] ValueDomainReport analyze_value_domains(const ops5::Program& program,
                                                      const ValueDomainOptions& options = {});

}  // namespace psmsys::analysis
