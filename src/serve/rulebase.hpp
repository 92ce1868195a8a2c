#pragma once

// Compile-once rule-base artifacts for the multi-session interpretation
// server (DESIGN.md §14).
//
// The ROADMAP north-star is a resident service interpreting many concurrent
// scenes over ONE compiled rule base. The rule base holds the frozen program
// and its one compiled Rete network (alpha patterns, dispatch buckets, node
// shapes, binding analyses); every session engine matches over that shared,
// read-only network and allocates only its private state (working memory,
// alpha/beta memories and tokens, conflict set, undo log).

#include <memory>

#include "ops5/engine.hpp"
#include "ops5/external.hpp"
#include "rete/network.hpp"

namespace psmsys::serve {

/// The shared, read-only half of the serve-time engine split. Thread-safe
/// after compile() returns (all state is immutable). Engines made from it
/// hold the program and the compiled network themselves; `externals` must
/// outlive them.
class SharedRuleBase {
 public:
  /// Compile the shared artifacts for a frozen program. `engine_options`
  /// configures every session engine. `externals` (optional) must outlive
  /// the rule base and its engines.
  [[nodiscard]] static std::shared_ptr<const SharedRuleBase> compile(
      std::shared_ptr<const ops5::Program> program,
      const ops5::ExternalRegistry* externals = nullptr,
      ops5::EngineConfig engine_options = {});

  [[nodiscard]] const ops5::Program& program() const noexcept { return *program_; }
  [[nodiscard]] const std::shared_ptr<const ops5::Program>& program_ptr() const noexcept {
    return program_;
  }
  /// The program's one compiled network, shared by every engine.
  [[nodiscard]] const std::shared_ptr<const rete::CompiledNetwork>& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const ops5::EngineConfig& engine_options() const noexcept {
    return engine_options_;
  }

  /// A fresh session engine over the shared compiled network, with private
  /// match state.
  [[nodiscard]] std::unique_ptr<ops5::Engine> make_engine() const;

 private:
  SharedRuleBase() = default;

  std::shared_ptr<const ops5::Program> program_;
  std::shared_ptr<const rete::CompiledNetwork> network_;
  const ops5::ExternalRegistry* externals_ = nullptr;
  ops5::EngineConfig engine_options_;
};

}  // namespace psmsys::serve
