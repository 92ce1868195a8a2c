#pragma once

// Whole-rule-base Rete dataflow analyzer.
//
// Everything else in src/analysis reasons about productions one at a time;
// this pass compiles the production set to the real Rete network
// (rete::CompiledNetwork::topology()) and analyzes the *compiled* shape as a
// whole:
//
//   - node sharing: how many alpha/join nodes the shared network has versus
//     the unshared compilation, one of each per CE (Gupta's classic sharing
//     factor);
//   - static join selectivity estimates from attribute-test structure, and
//     worst-case beta-memory growth bounds per production;
//   - class fan-in ("traffic"): how many RHS actions across the rule base
//     write each class, a static proxy for WME traffic per class;
//   - per-production static match-cost estimates combining the three;
//   - the production dependency graph (RHS-writes -> LHS-reads edges over
//     the class accesses of footprint.hpp). It feeds the report's `edges`
//     and the admission diff's edge churn; the AN008/AN009 lint rules keep
//     their own reader map and liveness fixpoint (lint.cpp).
//
// The report is deterministic for a fixed frozen program: node ids are Rete
// creation-order indices, every list is ordered by id, and to_json() emits
// insertion-ordered objects — so golden-file tests can compare bytes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "ops5/production.hpp"

namespace psmsys::analysis {

/// Assumed live WMEs per class for the beta-memory growth bounds. The bounds
/// scale polynomially in this, so it is a unit, not a prediction.
inline constexpr double kNominalWm = 8.0;
/// Exponent applied to class fan-in when weighting per-production cost: 0
/// ignores traffic entirely (the condition-count heuristic's implicit
/// assumption), 1 takes the write-site count at face value. 0.5 dampens skew:
/// write sites are a proxy for traffic, not a measurement.
inline constexpr double kFaninExponent = 0.5;

/// The pass has no settings; the empty type keeps analyze_rete's second
/// argument for callers that pass it.
struct ReteStaticOptions {};

/// One alpha pattern of the shared network.
struct AlphaNodeReport {
  std::uint32_t id = 0;
  std::string cls;               ///< class name
  std::uint32_t tests = 0;       ///< constant + intra-CE + disjunction tests
  std::uint32_t users = 0;       ///< productions with a CE compiling here
  double selectivity = 1.0;      ///< est. fraction of class WMEs passing
  double traffic = 1.0;          ///< class fan-in: 1 + RHS write sites
};

/// One beta-level two-input node (positive join or negative node).
struct JoinNodeReport {
  std::uint32_t id = 0;
  std::uint32_t alpha = 0;       ///< AlphaNodeReport id on the right input
  std::uint32_t depth = 0;       ///< CEs resolved before this node
  std::uint32_t tests = 0;       ///< variable consistency tests
  bool indexed = false;          ///< hashed-memory equality index in effect
  bool negated = false;
  std::uint32_t users = 0;       ///< productions sharing this node
  double selectivity = 1.0;      ///< est. fraction of (token, wme) pairs passing
  double left_bound = 1.0;       ///< est. tokens in the left memory (kNominalWm)
};

/// Per-production static match cost and growth bound.
struct ProductionReport {
  std::uint32_t id = 0;
  std::string name;
  double match_cost = 0.0;         ///< analyzer cost estimate (work units)
  std::uint64_t heuristic_cost = 0;///< condition-count heuristic weight
  std::uint32_t beta_degree = 0;   ///< worst-case beta growth is O(N^degree)
  double beta_bound = 0.0;         ///< est. peak tokens at N = kNominalWm
};

/// RHS-writes -> LHS-reads edge: production `from` writes class `cls`, which
/// production `to` reads (positively or under negation). Self-edges are kept
/// (a production feeding itself is a loop worth seeing); deduplicated per
/// (from, to, cls).
struct DependencyEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  ops5::ClassIndex cls = 0;
  std::string class_name;
  bool negated = false;  ///< the read side is a negated CE
};

struct ReteStaticReport {
  std::string program;                 ///< program name tag (caller-supplied)
  std::size_t production_count = 0;
  std::size_t alpha_nodes = 0;         ///< shared compilation
  std::size_t alpha_nodes_unshared = 0;///< node_sharing=false: one per CE
  std::size_t join_nodes = 0;          ///< joins + negative nodes, shared
  std::size_t join_nodes_unshared = 0;
  std::size_t beta_memories = 0;

  std::vector<AlphaNodeReport> alphas;      ///< ordered by id
  std::vector<JoinNodeReport> joins;        ///< ordered by id
  std::vector<ProductionReport> productions;///< ordered by production id
  std::vector<DependencyEdge> edges;        ///< ordered by (from, to, cls)

  /// Alpha sharing factor: unshared / shared node counts (1.0 = no sharing
  /// benefit). 0 for an empty program.
  [[nodiscard]] double alpha_sharing() const noexcept;
  [[nodiscard]] double join_sharing() const noexcept;

  /// Deterministic JSON rendering of the whole report (it also records
  /// kNominalWm and kFaninExponent).
  [[nodiscard]] obs::json::Value to_json() const;
};

/// Run the full pass. The program must be frozen.
[[nodiscard]] ReteStaticReport analyze_rete(const ops5::Program& program,
                                            const ReteStaticOptions& = {});

}  // namespace psmsys::analysis
