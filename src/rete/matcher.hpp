#pragma once

// Matcher abstraction: the Rete network and the naive oracle both implement
// this interface, so the differential tests drive them in lockstep, and a
// matcher reports conflict-set changes through MatchListener. The interface
// is exactly that lockstep surface: the three WM-delta entry points and the
// structural self-check. The engine owns a concrete rete::Network and reads
// its instrumentation (match chunks, token gauges, activation counters) from
// the network directly, and the shape and binding analyses from the
// network's shared rete::CompiledNetwork.

#include <span>
#include <string>
#include <vector>

#include "ops5/production.hpp"
#include "ops5/wme.hpp"

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

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Incorporate a new WME. The WME must outlive its presence in the matcher.
  virtual void add_wme(const ops5::Wme& wme) = 0;

  /// Retract a WME previously added.
  virtual void remove_wme(const ops5::Wme& wme) = 0;

  /// Forget all WMEs (between PSM tasks); the network structure is retained.
  virtual void clear() = 0;

  /// Structural self-check for differential tests: implementation-defined
  /// descriptions of violated internal invariants, empty when consistent.
  /// Matchers without internal match state (the naive oracle) inherit the
  /// always-clean default.
  [[nodiscard]] virtual std::vector<std::string> check_invariants() const { return {}; }
};

}  // namespace psmsys::rete
