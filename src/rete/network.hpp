#pragma once

// A from-scratch Rete match network (Forgy 1982, in the style of Doorenbos'
// "Production Matching for Large Learning Systems"), the algorithm ParaOPS5
// parallelizes (Section 3.1 of the paper).
//
// Structure:
//   alpha network — per-class list of AlphaPatterns (constant tests plus
//     intra-CE variable-equality tests) feeding AlphaMemories, hashed on
//     each pattern's first equality constant so a WME visits only the
//     patterns its own slot values can pass;
//   beta network — BetaMemory / JoinNode / NegativeNode / ProductionNode
//     chains with token-tree removal and optional node sharing.
//
// Instrumentation: every elementary operation charges the engine's
// WorkCounters via the CostModel, and each (WME-change × alpha-pattern)
// cascade is recorded as one *match chunk*. Chunks are the unit ParaOPS5
// distributes over dedicated match processes (its subtasks "execute only
// about 100 instructions"), so the psm match-parallelism model bin-packs
// exactly these chunk costs.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ops5/bindings.hpp"
#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "rete/matcher.hpp"
#include "util/counters.hpp"

namespace psmsys::rete {

/// Compile-time shape of the network, exported for the whole-rule-base static
/// analyzer (analysis/rete_static). Node ids are creation-order indices, so
/// for a fixed frozen program the topology is byte-deterministic. `users`
/// lists are sorted ascending and deduplicated.
struct NetworkTopology {
  struct AlphaNode {
    std::uint32_t id = 0;
    ops5::ClassIndex cls = 0;
    std::uint32_t const_tests = 0;
    std::uint32_t intra_tests = 0;
    std::uint32_t disj_tests = 0;
    std::vector<std::uint32_t> users;  ///< production ids testing this pattern
  };
  /// One beta-level two-input node: a positive join or a negative node.
  struct JoinNode {
    std::uint32_t id = 0;
    std::uint32_t alpha = 0;    ///< AlphaNode id feeding the right input
    std::uint32_t depth = 0;    ///< CEs resolved before this node (0-based)
    std::uint32_t tests = 0;    ///< variable consistency tests at this node
    bool indexed = false;       ///< hashed-memory equality index in effect
    bool negated = false;
    std::vector<std::uint32_t> users;  ///< production ids sharing this node
  };
  /// Per-production chain through the beta network, one node id per LHS CE
  /// in source order. Entries index into `joins`.
  struct ProductionPath {
    std::uint32_t production = 0;
    std::vector<std::uint32_t> nodes;
  };
  std::vector<AlphaNode> alphas;
  std::vector<JoinNode> joins;
  std::vector<ProductionPath> productions;
};

/// Per-production binding analyses keyed by production identity — the
/// compile-time artifact a multi-session server shares across every network
/// built over one frozen program (the analyses depend only on the production
/// source, never on working memory).
using BindingTable = std::unordered_map<const ops5::Production*, ops5::BindingAnalysis>;

/// Analyze every production of a frozen program once, for use as
/// NetworkOptions::shared_bindings by all networks compiled over it.
[[nodiscard]] BindingTable analyze_all_bindings(const ops5::Program& program);

/// Compile-time network specialization plan, produced by the value-domain
/// abstract interpreter (analysis/value_domain) and consumed here. Pure data:
/// the network trusts the plan blindly, soundness is the producer's proof
/// obligation (every plan ships with a machine-checkable
/// SpecializationCertificate on the analysis side).
///
/// Three transformation kinds, all firing-log invisible by construction:
///   - pruned productions are never compiled (their production node could
///     never activate, so the listener never hears from them either way);
///   - dead constant tests mark their whole alpha pattern dead: the pattern
///     and its memory are still built (negated CEs may reference them — an
///     empty alpha memory means the absence test holds), but the pattern is
///     dropped from the per-class dispatch list, so WM traffic never charges
///     its tests;
///   - foldable constant tests (provably true for every WME the rule base
///     can produce) are skipped during alpha evaluation. The folded test
///     stays part of the pattern's sharing identity, so specialization never
///     merges patterns and cannot perturb activation order.
struct SpecializationPlan {
  /// One constant alpha-level test, identified structurally. A key applies to
  /// every alpha pattern of `cls` containing this exact test, which is sound
  /// because the justifying domains are per-(class, slot), never per-CE.
  struct TestKey {
    ops5::ClassIndex cls = 0;
    ops5::SlotIndex slot = 0;
    ops5::Predicate pred = ops5::Predicate::Eq;
    ops5::Value value;
    [[nodiscard]] bool operator==(const TestKey& o) const noexcept {
      return cls == o.cls && slot == o.slot && pred == o.pred && value == o.value;
    }
  };
  /// Production ids that can never fire (dead positive CE or infeasible
  /// join), sorted ascending.
  std::vector<std::uint32_t> pruned_productions;
  /// Constant tests no WME of their class can ever pass.
  std::vector<TestKey> dead_tests;
  /// Constant tests every WME of their class is guaranteed to pass.
  std::vector<TestKey> fold_tests;

  [[nodiscard]] bool prunes(std::uint32_t production_id) const noexcept {
    return std::binary_search(pruned_productions.begin(), pruned_productions.end(),
                              production_id);
  }
  [[nodiscard]] bool empty() const noexcept {
    return pruned_productions.empty() && dead_tests.empty() && fold_tests.empty();
  }
};

struct NetworkOptions {
  /// Share alpha memories and beta-level nodes between productions with
  /// common prefixes (standard Rete sharing; disable for the ablation bench).
  bool node_sharing = true;
  /// Record per-chunk match costs (needed by the match-parallelism model).
  bool record_chunks = true;
  /// Hash-index join memories on their first equality test (ParaOPS5's
  /// hashed-memory optimization): a join activation probes only candidates
  /// whose key matches instead of scanning the whole opposite memory.
  /// Disable for the ablation bench.
  bool indexed_joins = true;
  /// Doorenbos-style left/right node unlinking: a join whose beta-memory
  /// input is empty detaches from its alpha memory's activation fan-out
  /// (right unlinking), and a join whose alpha memory is empty detaches from
  /// token propagation (left unlinking), so WM traffic through quiescent
  /// productions costs ~nothing. Negative nodes only right-unlink — an empty
  /// alpha memory means the absence test holds and tokens must still be
  /// created. The hash indexes live on the memories (one per distinct key
  /// slot) and are always maintained, so a link transition is a pure flag
  /// flip and unlinking cannot perturb candidate order: match results,
  /// firing logs, and conflict-set deltas are bit-identical either way.
  /// Per-node activation counts and match-cost charges drop for unlinked
  /// nodes, which is the measurable point. Disable for the ablation bench.
  bool unlinking = true;
  /// Compile only the productions with these ids (sorted ascending); empty =
  /// all of them. The partition networks of rete::ParallelMatcher use this to
  /// split one frozen program into disjoint sub-networks.
  std::vector<std::uint32_t> production_filter;
  /// Precomputed binding analyses for (a superset of) the program's
  /// productions. Not owned: the table must outlive the network. When set,
  /// compilation reuses these entries instead of re-running analyze_bindings
  /// per production per network — the compile-once half of the serve-time
  /// split between the shared rule base and per-session match state.
  const BindingTable* shared_bindings = nullptr;
  /// Apply `plan` at compile time: skip pruned productions, drop dead alpha
  /// patterns from dispatch, skip folded constant tests. No-op when false or
  /// when `plan` is null/empty. Match results and delta logs are identical
  /// with specialization on or off (the rete_fuzz_test / match_oracle_test
  /// spec axis enforces byte-equality) — only the work shrinks.
  bool specialize = false;
  /// The proof-carrying plan; shared so reconfigure()/ParallelMatcher option
  /// copies never dangle. Ignored unless `specialize` is set.
  std::shared_ptr<const SpecializationPlan> plan;
};

class Network final : public Matcher {
 public:
  /// Compiles the network for all productions in `program`. The program must
  /// be frozen and must outlive the network. Costs are charged to `counters`.
  Network(const ops5::Program& program, MatchListener& listener,
          util::WorkCounters& counters, const util::CostModel& costs = {},
          const NetworkOptions& options = {});
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void add_wme(const ops5::Wme& wme) override;
  void remove_wme(const ops5::Wme& wme) override;
  void clear() override;

  [[nodiscard]] NetworkStats stats() const noexcept override { return stats_; }

  /// Match chunks recorded since the last take_chunks() call. Each entry is
  /// the work-unit cost of one independent alpha-pattern cascade.
  [[nodiscard]] std::vector<util::WorkUnits> take_chunks() override;

  /// Peak number of simultaneously-live beta-memory tokens over the network's
  /// lifetime — the working-set gauge behind the paper's memory-contention
  /// discussion. Always 0 when built with PSMSYS_OBS=0.
  [[nodiscard]] std::uint64_t peak_live_tokens() const noexcept override;

  /// Currently-live beta-memory tokens (instantaneous working-set reading).
  /// Always 0 when built with PSMSYS_OBS=0.
  [[nodiscard]] std::uint64_t live_tokens() const noexcept override;

  /// Lifetime per-node activation counts indexed by the topology() node ids.
  /// Empty when built with PSMSYS_OBS=0.
  [[nodiscard]] NodeActivations node_activations() const override;

  /// Binding analysis computed during compilation, exposed for RHS evaluation.
  [[nodiscard]] const ops5::BindingAnalysis& bindings(const ops5::Production& p) const override;

  /// Structural self-check for the differential tests: every position
  /// back-pointer, index/memory mirror, slot-map row, and (when unlinking is
  /// on) link flag is validated against the authoritative lists. Returns
  /// human-readable violation descriptions, empty when consistent.
  [[nodiscard]] std::vector<std::string> check_invariants() const override;

  /// Compile-time network shape with per-node sharing (user) information.
  /// Deterministic for a fixed frozen program and options.
  [[nodiscard]] NetworkTopology topology() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  NetworkStats stats_;
};

}  // namespace psmsys::rete
