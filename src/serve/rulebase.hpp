#pragma once

// Compile-once rule-base artifacts for the multi-session interpretation
// server (DESIGN.md §14).
//
// The ROADMAP north-star is a resident service interpreting many concurrent
// scenes over ONE compiled rule base. Everything about a frozen program that
// is immutable at serve time is computed here exactly once — the program
// itself, the per-production binding analyses, and the network topology —
// and every session engine is then instantiated over these shared read-only
// artifacts with only its private state (working memory, alpha/beta
// memories, conflict set, undo log) allocated per session.

#include <memory>

#include "ops5/engine.hpp"
#include "ops5/external.hpp"
#include "rete/network.hpp"

namespace psmsys::serve {

/// The shared, read-only half of the serve-time engine split. Thread-safe
/// after compile() returns (all state is immutable); engines made from it
/// must not outlive it, which the server guarantees by handing every session
/// a shared_ptr to the rule base.
class SharedRuleBase {
 public:
  /// Compile the shared artifacts for a frozen program. `engine_options`
  /// seeds every session engine's configuration; its `rete.shared_bindings`
  /// field is overwritten with the binding table computed here. `externals`
  /// (optional) must outlive the rule base.
  [[nodiscard]] static std::shared_ptr<const SharedRuleBase> compile(
      std::shared_ptr<const ops5::Program> program,
      const ops5::ExternalRegistry* externals = nullptr,
      ops5::EngineOptions engine_options = {});

  [[nodiscard]] const ops5::Program& program() const noexcept { return *program_; }
  [[nodiscard]] const std::shared_ptr<const ops5::Program>& program_ptr() const noexcept {
    return program_;
  }
  [[nodiscard]] const rete::NetworkTopology& topology() const noexcept { return topology_; }
  [[nodiscard]] const ops5::EngineOptions& engine_options() const noexcept {
    return engine_options_;
  }

  /// A fresh session engine over the shared artifacts: same program, shared
  /// binding analyses, private everything else.
  [[nodiscard]] std::unique_ptr<ops5::Engine> make_engine() const;

 private:
  SharedRuleBase() = default;

  std::shared_ptr<const ops5::Program> program_;
  const ops5::ExternalRegistry* externals_ = nullptr;
  ops5::EngineOptions engine_options_;
  rete::BindingTable bindings_;
  rete::NetworkTopology topology_;
};

}  // namespace psmsys::serve
