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
//     chains with token-tree removal and optional node sharing. Every join
//     is unlinked (Doorenbos' left/right unlinking) while the memory on one
//     side is empty, so WM traffic through quiescent productions costs
//     ~nothing; match results and firing logs never depend on link state.
//
// The shape is compiled once per rule base into a read-only CompiledNetwork;
// each Network holds one engine's match state over it.
//
// Instrumentation: every elementary operation charges the engine's
// WorkCounters at the util::cost weights, and each (WME-change ×
// alpha-pattern) cascade is recorded as one *match chunk*. Chunks are the
// unit ParaOPS5 distributes over dedicated match processes (its subtasks
// "execute only about 100 instructions"), so the psm match-parallelism model
// bin-packs exactly these chunk costs.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ops5/bindings.hpp"
#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "rete/matcher.hpp"
#include "util/counters.hpp"

namespace psmsys::rete {

/// Cumulative per-node activation counts, indexed by the node ids
/// NetworkTopology exports (alpha: WMEs passing the pattern on add; join:
/// left + right activations, negative nodes included in the join id space).
/// Counts are lifetime gauges — clear() retains them — so they show a whole
/// run's traffic per node.
struct NodeActivations {
  std::vector<std::uint64_t> alpha;
  std::vector<std::uint64_t> join;

  [[nodiscard]] bool empty() const noexcept {
    return alpha.empty() && join.empty();
  }
};

/// Summary of the compiled network shape (for tests and DESIGN docs).
struct NetworkStats {
  std::size_t alpha_patterns = 0;
  std::size_t alpha_memories = 0;
  std::size_t beta_memories = 0;
  std::size_t join_nodes = 0;
  std::size_t negative_nodes = 0;
  std::size_t production_nodes = 0;
};

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

/// The two switches that change what the compiled network looks like.
struct NetworkOptions {
  /// Share alpha memories and beta-level nodes between productions with
  /// common prefixes (standard Rete sharing; disable for the ablation bench).
  bool node_sharing = true;
  /// Hash-index join memories on their first equality test (ParaOPS5's
  /// hashed-memory optimization): a join activation probes only candidates
  /// whose key matches instead of scanning the whole opposite memory.
  /// Disable for the ablation bench.
  bool indexed_joins = true;
};

/// The read-only half of a Rete network, compiled once per rule base: alpha
/// patterns and their class dispatch buckets, every node's shape under a
/// dense id, the shared-index layouts, each production's path and binding
/// analysis. Nothing in it changes after construction, so any number of
/// Networks on any number of threads match over one CompiledNetwork at once,
/// as every PSM task process runs the one compiled rule set (Section 5.1).
class CompiledNetwork {
 public:
  /// The program must be frozen and must outlive the compiled network.
  explicit CompiledNetwork(const ops5::Program& program, const NetworkOptions& options = {});
  ~CompiledNetwork();

  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

  [[nodiscard]] const ops5::Program& program() const noexcept;
  [[nodiscard]] NetworkStats stats() const noexcept;

  /// Compile-time network shape with per-node sharing (user) information.
  /// Deterministic for a fixed frozen program and options.
  [[nodiscard]] NetworkTopology topology() const;

  /// The binding analysis of one of the program's productions, for RHS
  /// evaluation.
  [[nodiscard]] const ops5::BindingAnalysis& bindings(const ops5::Production& p) const;

 private:
  friend class Network;
  struct Nodes;
  const std::unique_ptr<const Nodes> nodes_;
};

/// One engine's match state over a compiled network: alpha and beta
/// memories, tokens, hash indexes, link flags and gauges, in arrays indexed
/// by the compiled node ids.
class Network final : public Matcher {
 public:
  /// Match state over `compiled`, which the network shares. Costs are
  /// charged to `counters`; match chunks are recorded only with
  /// `record_chunks` (the match-parallelism model needs them).
  Network(std::shared_ptr<const CompiledNetwork> compiled, MatchListener& listener,
          util::WorkCounters& counters, bool record_chunks = true);
  /// Compiles `program` for this network alone. The program must be frozen
  /// and must outlive the network.
  Network(const ops5::Program& program, MatchListener& listener, util::WorkCounters& counters,
          const NetworkOptions& options = {});
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void add_wme(const ops5::Wme& wme) override;
  void remove_wme(const ops5::Wme& wme) override;
  void clear() override;

  /// The shape this network matches over: stats, topology, bindings.
  [[nodiscard]] const CompiledNetwork& compiled() const noexcept;

  /// Match chunks recorded since the last take_chunks() call. Each entry is
  /// the work-unit cost of one independent alpha-pattern cascade.
  [[nodiscard]] std::vector<util::WorkUnits> take_chunks();

  /// Peak number of simultaneously-live beta-memory tokens over the network's
  /// lifetime — the working-set gauge behind the paper's memory-contention
  /// discussion.
  [[nodiscard]] std::uint64_t peak_live_tokens() const noexcept;

  /// Currently-live beta-memory tokens (instantaneous working-set reading).
  [[nodiscard]] std::uint64_t live_tokens() const noexcept;

  /// Lifetime per-node activation counts indexed by the topology() node ids.
  [[nodiscard]] NodeActivations node_activations() const;

  /// Structural self-check for the differential tests: every state array is
  /// sized to the compiled node counts, and every position back-pointer,
  /// index/memory mirror, record value pointer, and link flag is validated
  /// against the authoritative lists (a link flag must mirror the
  /// non-emptiness of the memory it watches). Returns human-readable
  /// violation descriptions, empty when consistent.
  [[nodiscard]] std::vector<std::string> check_invariants() const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace psmsys::rete
