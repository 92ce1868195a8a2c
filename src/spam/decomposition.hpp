#pragma once

// Task decompositions of the LCC and RTF phases (Section 4, Figure 4).
//
//   Level 4: one task per object class (9 tasks);
//   Level 3: one task per object (fragment hypothesis);
//   Level 2: one task per (constraint, object) pair;
//   Level 1: one task per constraint component — a single object pair check.
//
// Tasks are emitted in FIFO queue order: fragments in region-id order, so the
// oversized late-generated regions land at the end of the queue (the paper's
// tail-end effect, Section 6.2). RTF decomposes into region groups of
// roughly Level-2 granularity (Section 4, last paragraph).

#include <vector>

#include "analysis/interference.hpp"
#include "psm/task.hpp"
#include "spam/fragment.hpp"
#include "spam/phases.hpp"
#include "spam/programs.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::spam {

/// A decomposition: the factory builds a task process (engine + base WM);
/// tasks inject the per-task WMEs. `spec` is the matching static description
/// (rule base, class roles, scene-derived data facts, task injections) that
/// analysis::check_interference certifies independent — the machine-checked
/// form of Section 5.1's "tasks are independent OPS5 runs". Task `i`'s
/// inject replays `spec.tasks[i].wmes`, whose class, slot and symbol indices
/// are those of the phase program (and of any program parsed from the same
/// source).
struct Decomposition {
  psm::TaskProcessFactory factory;
  std::vector<psm::Task> tasks;
  analysis::DecompositionSpec spec;
};

/// LCC decomposition at `level` (1..4). `scene` and `fragments` must outlive
/// the decomposition (the factory and tasks capture references via the
/// phase program's user data and copies of fragment data).
///
/// `record_cycles` enables per-cycle records on the task engines — required
/// when the measurements will feed the match-parallelism model.
[[nodiscard]] Decomposition lcc_decomposition(int level, const Scene& scene,
                                              std::vector<Fragment> best_fragments,
                                              bool record_cycles = false);

/// RTF decomposition into region groups of `group_size` consecutive ids.
[[nodiscard]] Decomposition rtf_decomposition(const Scene& scene, int group_size,
                                              bool record_cycles = false);

/// Run every task of a decomposition on a single task process, in order —
/// the BASELINE configuration of Section 5.2 — returning per-task
/// measurements.
[[nodiscard]] std::vector<psm::TaskMeasurement> run_baseline(const Decomposition& decomposition);

}  // namespace psmsys::spam
