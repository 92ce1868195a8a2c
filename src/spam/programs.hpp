#pragma once

// OPS5 rule bases for the four SPAM phases.
//
// The rule bases are emitted as OPS5 source text and run through the full
// parser, exactly as SPAM's productions were OPS5 source. RTF performs
// heuristic classification through intermediate abstractions
// (region -> linear/blob/building -> fragment); LCC performs
// constraint-satisfaction by calling the geometry externals; FA aggregates
// consistent contexts into functional areas; MODEL assembles functional
// areas into a scene model.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ops5/engine.hpp"
#include "ops5/external.hpp"
#include "ops5/parser.hpp"
#include "spam/scene.hpp"

namespace psmsys::spam {

/// A parsed phase program together with its external-function registry and
/// its one compiled Rete network. Engines built from it must
/// set_user_data(&scene) so externals can reach the polygons.
struct PhaseProgram {
  std::shared_ptr<const ops5::Program> program;
  std::shared_ptr<const ops5::ExternalRegistry> externals;
  std::shared_ptr<const rete::CompiledNetwork> network;  ///< compiled from `program`

  /// Convenience: construct a ready engine over `network`, bound to `scene`.
  [[nodiscard]] std::unique_ptr<ops5::Engine> make_engine(const Scene& scene,
                                                          ops5::EngineConfig options = {}) const;
};

/// OPS5 source text of each phase (exposed for tests and documentation).
[[nodiscard]] std::string rtf_source();
[[nodiscard]] std::string lcc_source();
[[nodiscard]] std::string fa_source();
[[nodiscard]] std::string model_source();

/// One phase as the control process hands it work: its name, its OPS5
/// source, the classes it is seeded with and the classes it outputs (what
/// the linter, the value-domain pass and the admission gate assume).
struct PhaseSpec {
  const char* name = nullptr;
  std::string (*source)() = nullptr;
  std::vector<std::string> seeds;
  std::vector<std::string> outputs;
};

/// The four phases in pipeline order: rtf, lcc, fa, model.
[[nodiscard]] const std::vector<PhaseSpec>& phase_specs();

/// The phase called `name`, or nullptr.
[[nodiscard]] const PhaseSpec* phase_spec(std::string_view name);

/// Each phase's one bundle, parsed and compiled on first use; every call
/// returns the same program, registry and network.
[[nodiscard]] PhaseProgram build_rtf_program();
[[nodiscard]] PhaseProgram build_lcc_program();
[[nodiscard]] PhaseProgram build_fa_program();
[[nodiscard]] PhaseProgram build_model_program();

}  // namespace psmsys::spam
