#pragma once

// OPS5 rule-base linter. Diagnoses the rule-authoring mistakes that the
// engine either rejects at load time with a bare exception (AN001/AN006 via
// analyze_bindings) or silently tolerates (everything else), each with a
// stable code, severity, and the source location the parser recorded.
//
//   AN001 error    unbound RHS variable (incl. bound only inside a negation)
//   AN002 warning  variable bound in a positive CE but never used
//   AN003 warning  positive CE class with no producer and not seeded
//   AN004 error    contradictory attribute tests within one CE
//   AN005 warning  modify/remove index lands on a negated LHS element
//                  (OPS5 numbers only matchable CEs — likely off-by-one)
//   AN006 error    variable's first occurrence uses a non-equality predicate
//   AN007 warning  same attribute assigned twice in one make/modify
//
// Two whole-program rules use the linter's own class-reader map and
// liveness fixpoint (not rete_static's dependency graph):
//
//   AN008 warning  dead production: nothing it writes is read by any other
//                  production or declared a phase output, and it has no
//                  externally visible action (write/halt)
//   AN009 warning  unreachable production: a positive CE class is
//                  *transitively* unproducible from the declared seeds —
//                  it has producers, but no producer chain starts at a seed
//                  (AN003 covers the no-producer-at-all case)

#include <optional>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "ops5/production.hpp"

namespace psmsys::analysis {

struct LintOptions {
  /// WME classes seeded from outside the rule base (the control process's
  /// make_wme calls). Unset disables AN003 and AN009 — without knowing the
  /// seeds, "no producer" and "unreachable" prove nothing.
  std::optional<std::vector<ops5::ClassIndex>> seed_classes;
  /// WME classes the control process extracts after quiescence (the phase's
  /// results). Unset disables AN008 — without knowing the outputs, "nobody
  /// consumes it" proves nothing.
  std::optional<std::vector<ops5::ClassIndex>> output_classes;
};

/// Lint a whole program. Diagnostics are ordered by production, then by
/// check order within a production.
[[nodiscard]] std::vector<Diagnostic> lint_program(const ops5::Program& program,
                                                   const LintOptions& options = {});

/// Lint one production. The production need not be registered with `program`
/// (useful for indices Program::add_production would reject); AN003 resolves
/// producers against `program`'s production list.
[[nodiscard]] std::vector<Diagnostic> lint_production(const ops5::Program& program,
                                                      const ops5::Production& production,
                                                      const LintOptions& options = {});

}  // namespace psmsys::analysis
