#pragma once

// Static admission pipeline for versioned rule packs.
//
// AnalysisPipeline bundles every analyzer in src/analysis — the linter
// (AN001–AN009), the rete_static cost model, the value-domain abstract
// interpreter (AN014–AN017), and the task-interference checker — into one
// gate that judges a *candidate* rule pack, optionally against the *live*
// pack it would replace, and emits a single
// byte-deterministic, schema-versioned AdmissionVerdict
// ("admission-verdict-v1": pass/warn/reject with per-analyzer sections).
//
// The centerpiece is the cross-version semantic diff: added / removed /
// modified productions (by canonical structural fingerprint), per-production
// static cost deltas and worst-case beta-growth regressions, output-class
// schema changes, and topology/sharing churn — surfaced as lint rules
// AN010–AN013:
//
//   AN010 warning/error  a production's static match cost grew past 2x the
//                        live pack's (an error past 8x), its worst-case beta
//                        bound grew past 8x (error), or its beta-growth
//                        degree rose (warning)
//   AN011 error          the candidate adds a task-interference conflict the
//                        live pack's certificate did not have
//   AN012 error          the live independence certificate cannot be
//                        re-established over the candidate at all
//   AN013 warning/error  a class was removed or its attribute layout changed
//                        (error when it is a declared output class)
//
// The interference recheck never trusts indices across programs: the live
// DecompositionSpec is *rebound by name* (classes, slots, symbols) onto the
// candidate program first, and any name that fails to resolve is itself an
// AN012 — a certificate that cannot even be restated is not in force.
//
// The gate has one policy: the ratios above, and at most 64 findings kept
// per section (the counts stay exact, and the section's details carry
// "findings_truncated": true). `strict` (spam_lint --strict) also rejects
// on warnings.
//
// src/serve wires this in as the hot-reload gate (Server::stage_pack); the
// spam_lint --gate CLI and CI run the same pipeline offline.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/interference.hpp"
#include "analysis/rete_static.hpp"
#include "obs/json.hpp"
#include "ops5/production.hpp"

namespace psmsys::analysis {

/// One side of an admission check. Class references are by *name* — the only
/// identity stable across program versions; names that do not resolve in the
/// pack's program are skipped (a removed class surfaces through AN013, not
/// through a misconfigured gate).
struct PackInput {
  /// Display label; when empty the pipeline derives "name@version" from the
  /// program's pack metadata, falling back to "pack".
  std::string label;
  std::shared_ptr<const ops5::Program> program;
  /// Seed / output class names for the linter (see LintOptions); outputs
  /// also decide AN013 severity. Unset disables the dependent lint rules.
  std::optional<std::vector<std::string>> seed_classes;
  std::optional<std::vector<std::string>> output_classes;
  /// The independence certificate in force for the live pack (ignored on the
  /// candidate side). Must outlive the admit() call.
  const DecompositionSpec* spec = nullptr;
};

enum class AdmissionDecision : std::uint8_t { Pass, Warn, Reject };

[[nodiscard]] std::string_view admission_decision_name(AdmissionDecision d) noexcept;

struct VerdictFinding {
  std::string code;        ///< "AN001"... wire code
  std::string severity;    ///< "warning" | "error"
  std::string production;  ///< empty for pack-level findings
  std::string message;
};

struct VerdictSection {
  std::string analyzer;  ///< "lint" | "rete_static" | "value_domains" | "interference" | "semantic_diff"
  AdmissionDecision decision = AdmissionDecision::Pass;
  std::size_t errors = 0;    ///< exact count, even when findings are truncated
  std::size_t warnings = 0;
  std::vector<VerdictFinding> findings;
  obs::json::Object details;  ///< analyzer-specific deterministic metrics
};

struct AdmissionVerdict {
  static constexpr std::string_view kSchema = "admission-verdict-v1";

  std::string live;       ///< live pack label, empty for a candidate-only check
  std::string candidate;
  AdmissionDecision decision = AdmissionDecision::Pass;
  std::vector<VerdictSection> sections;

  [[nodiscard]] bool accepted() const noexcept {
    return decision != AdmissionDecision::Reject;
  }
  [[nodiscard]] std::size_t errors() const noexcept;
  [[nodiscard]] std::size_t warnings() const noexcept;

  /// Deterministic JSON: fixed key order, sorted lists, 6-significant-digit
  /// rounding — byte-identical across runs for identical inputs.
  [[nodiscard]] obs::json::Value to_json() const;
};

/// Translate a decomposition spec onto another program by name: classes,
/// slots, and symbol values are looked up in `target` via the names they
/// carry in spec.program. Returns nullopt (and a reason in *error) when any
/// referenced class / attribute / symbol does not exist in the target — the
/// AN012 condition.
[[nodiscard]] std::optional<DecompositionSpec> rebind_spec(
    const DecompositionSpec& spec,
    std::shared_ptr<const ops5::Program> target, std::string* error = nullptr);

/// Canonical structural rendering of a production (classes, attributes,
/// variables and externals by name; constants as literals). Two productions
/// with equal fingerprints behave identically; the semantic diff classifies
/// same-name productions with differing fingerprints as "modified".
[[nodiscard]] std::string production_fingerprint(const ops5::Program& program,
                                                 const ops5::Production& production);

class AnalysisPipeline {
 public:
  /// `strict` treats warnings as rejecting.
  explicit AnalysisPipeline(bool strict = false) : strict_(strict) {}

  /// Judge `candidate`, optionally against `live` (nullptr = boot-time
  /// candidate-only check: lint + rete_static, no cross-version sections).
  [[nodiscard]] AdmissionVerdict admit(const PackInput* live,
                                       const PackInput& candidate) const;

 private:
  bool strict_ = false;
};

}  // namespace psmsys::analysis
