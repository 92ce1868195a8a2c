#pragma once

// Matcher abstraction: the Rete network and the naive oracle both implement
// this interface, so the differential tests drive them in lockstep, and a
// matcher reports conflict-set changes through MatchListener.
//
// Beyond the three WM-delta entry points, the interface carries the
// instrumentation surface the engine and executors consume: compiled network
// shape, per-cascade match chunks, the live-token gauge, and the binding
// analysis RHS evaluation needs. Matchers that do not compile a network
// (the naive oracle) inherit the empty defaults.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops5/bindings.hpp"
#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "util/counters.hpp"

namespace psmsys::rete {

/// Receives conflict-set deltas from a matcher. The `wmes` span of either
/// callback is valid only during the call (the Rete network reuses one
/// buffer for every callback); a listener that keeps the WMEs copies them.
class MatchListener {
 public:
  virtual ~MatchListener() = default;

  /// A production became satisfied by `wmes` (positive CEs, in order).
  virtual void on_activate(const ops5::Production& production,
                           std::span<const ops5::Wme* const> wmes) = 0;

  /// A previously reported match is no longer satisfied.
  virtual void on_deactivate(const ops5::Production& production,
                             std::span<const ops5::Wme* const> wmes) = 0;
};

/// Cumulative per-node activation counts, indexed by the creation-order node
/// ids NetworkTopology exports (alpha: WMEs passing the pattern on add; join:
/// left + right activations, negative nodes included in the join id space).
/// Counts are lifetime gauges — clear() retains them — so static analyzer
/// costs can be calibrated against a whole run's measured traffic.
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

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Incorporate a new WME. The WME must outlive its presence in the matcher.
  virtual void add_wme(const ops5::Wme& wme) = 0;

  /// Retract a WME previously added.
  virtual void remove_wme(const ops5::Wme& wme) = 0;

  /// Forget all WMEs (between PSM tasks); the network structure is retained.
  virtual void clear() = 0;

  /// Compiled network shape; zeros for matchers without a network.
  [[nodiscard]] virtual NetworkStats stats() const noexcept { return {}; }

  /// Match chunks recorded since the last take_chunks() call. Each entry is
  /// the work-unit cost of one independent alpha-pattern cascade.
  [[nodiscard]] virtual std::vector<util::WorkUnits> take_chunks() { return {}; }

  /// Peak number of simultaneously-live beta-memory tokens over the matcher's
  /// lifetime (the working-set gauge behind the paper's memory-contention
  /// discussion). Always 0 when built with PSMSYS_OBS=0.
  [[nodiscard]] virtual std::uint64_t peak_live_tokens() const noexcept { return 0; }

  /// Currently-live beta-memory tokens — the resident match state a streaming
  /// session accumulates as WM deltas arrive. Unlike the peak gauge this is an
  /// instantaneous reading, so per-tick samples trace working-set growth.
  /// Always 0 when built with PSMSYS_OBS=0.
  [[nodiscard]] virtual std::uint64_t live_tokens() const noexcept { return 0; }

  /// Per-node activation counters for matchers compiling a network with a
  /// stable topology id space. Empty for matchers without one (the naive
  /// oracle) and when built with PSMSYS_OBS=0.
  [[nodiscard]] virtual NodeActivations node_activations() const { return {}; }

  /// Binding analysis computed during compilation, exposed for RHS
  /// evaluation. Throws for matchers that do not compile productions.
  [[nodiscard]] virtual const ops5::BindingAnalysis& bindings(const ops5::Production&) const {
    throw std::logic_error("matcher has no binding analysis");
  }

  /// Structural self-check for differential tests: implementation-defined
  /// descriptions of violated internal invariants, empty when consistent.
  /// Matchers without internal match state (the naive oracle) inherit the
  /// always-clean default.
  [[nodiscard]] virtual std::vector<std::string> check_invariants() const { return {}; }
};

}  // namespace psmsys::rete
