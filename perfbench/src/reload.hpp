#pragma once

// Hot-reload layers, measured in the traced run of the `serve` workload. A
// reload workload of its own was dropped: one reload costs ~1 s of admission
// analysis whose host time moved by more than 20% between runs, so ten runs
// could not agree within the end-to-end bounds (see perfbench/README.md).

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"
#include "spam/decomposition.hpp"
#include "spam/programs.hpp"

namespace perfbench {

/// Classes the LCC control process seeds and extracts (the admission gate's
/// lint context; same as spam_serve).
extern const std::vector<std::string> kLccSeedClasses;
extern const std::vector<std::string> kLccOutputClasses;

/// `reloads` operator hot reloads on `server`, which must run the LCC pack
/// with `lcc.spec` as its admission certificate and be otherwise idle: each
/// stages the next `(pack lcc vN)` version of the LCC source, activates it,
/// and waits until one probe scene (task `probe`) per worker completed on
/// it. Appends the serve.* and analysis.* reload layers to result.layers,
/// times every analysis layer directly on the candidate, and returns the
/// probe scenes the server completed.
std::uint64_t trace_hot_reloads(psmsys::serve::Server& server,
                                const psmsys::spam::Decomposition& lcc,
                                const psmsys::spam::PhaseProgram& phase, std::size_t probe,
                                std::size_t reloads, Result& result);

}  // namespace perfbench
