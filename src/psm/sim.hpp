#pragma once

// Virtual-time multiprocessor models.
//
// The benchmark host has a single core, so speedup curves cannot be measured
// as wall-clock time. Instead, tasks are *really executed* (task.hpp) to
// obtain their true work-unit costs and per-cycle match profiles, and these
// models schedule those measured costs over P virtual processors — the same
// modelling the paper itself uses for its predicted speedups (Table 9's
// parenthesized numbers). All phenomena the paper reports emerge from
// measured inputs: near-linear TLP speedups, the tail-end effect from
// outlier tasks, Amdahl-limited match parallelism from per-cycle chunk
// profiles, and multiplicative composition of the two.
//
// Model of a task process with M dedicated match processes (Section 5.1):
// per recognize-act cycle,
//
//   cycle_time(0) = resolve + rhs + sum(chunks)              (inline match)
//   cycle_time(M) = resolve + rhs + max(0, par_match(M) - overlap * rhs)
//   par_match(M)  = max(min(largest_chunk, granularity), sum(chunks) / M)
//                 + sync
//
// The cycle's measured match chunks distribute ideally over M match
// processes (sum/M), floored by the largest indivisible activation piece
// (large cascades split into ParaOPS5's ~100-instruction subtasks, hence the
// granularity cap). `sync` is the per-cycle resolve-phase barrier (the
// paper's limit 1: synchronization each cycle), and `overlap` models the
// pipelining of dedicated match processes with the act phase (the reason
// the paper measures speedup > 1 even with a single dedicated match
// process, Table 9 row 1). Saturation arises from the barrier, the floor,
// and the limited match effort per cycle (limit 2).

#include <cstdint>
#include <span>
#include <vector>

#include "ops5/engine.hpp"
#include "psm/task.hpp"
#include "util/work_units.hpp"

namespace psmsys::psm {

// ---------------------------------------------------------------------------
// Task-level parallelism: list scheduling over a central queue
// ---------------------------------------------------------------------------

enum class SchedulePolicy : std::uint8_t {
  /// Queue order (the paper's implementation).
  Fifo,
  /// Largest tasks first — the separate-queue-for-large-tasks fix the paper
  /// proposes for the tail-end effect (Section 6.2).
  LargestFirst,
};

struct TlpConfig {
  std::size_t task_processes = 1;
  /// Queue pop + task initialization cost, charged per task to the popping
  /// process. Measured "very low: ... less than .1% of the processing time"
  /// (Section 6.2); default matches that order.
  util::WorkUnits queue_overhead_per_task = 40;
  SchedulePolicy policy = SchedulePolicy::Fifo;
};

struct TlpSimResult {
  util::WorkUnits makespan = 0;
  std::vector<util::WorkUnits> busy;  ///< per-process busy time (incl. queue overhead)
  util::WorkUnits queue_overhead_total = 0;

  /// Mean busy fraction of the processors over the makespan.
  [[nodiscard]] double utilization() const noexcept;
};

/// Schedule `task_costs` (queue order) over P processes: each process takes
/// the next task when free — list scheduling, the exact semantics of the
/// central task queue.
[[nodiscard]] TlpSimResult simulate_tlp(std::span<const util::WorkUnits> task_costs,
                                        const TlpConfig& config);

[[nodiscard]] inline double speedup(util::WorkUnits baseline, util::WorkUnits parallel) noexcept {
  return parallel == 0 ? 0.0 : static_cast<double>(baseline) / static_cast<double>(parallel);
}

// ---------------------------------------------------------------------------
// Match parallelism: per-cycle chunk distribution
// ---------------------------------------------------------------------------

struct MatchModel {
  /// Dedicated match processes per task process; 0 = task process matches
  /// inline (the BASELINE configuration).
  std::size_t match_processes = 0;
  /// Per-cycle synchronization cost of the resolve barrier.
  util::WorkUnits sync_per_cycle = 10;
  /// Fraction of the act phase that dedicated match processes overlap with.
  double act_overlap = 0.5;
};

/// Longest-processing-time bin packing: makespan of `chunks` on `bins`.
[[nodiscard]] util::WorkUnits lpt_makespan(std::span<const util::WorkUnits> chunks,
                                           std::size_t bins);

/// Virtual duration of one recognize-act cycle under the model.
[[nodiscard]] util::WorkUnits cycle_cost(const ops5::CycleRecord& cycle, const MatchModel& model);

/// Virtual duration of a whole task (sum over its cycles). The measurement
/// must have been taken with EngineConfig::record_cycles = true when
/// match_processes > 0.
[[nodiscard]] util::WorkUnits task_cost_with_match(const TaskMeasurement& task,
                                                   const MatchModel& model);

/// Cost list for the TLP simulator. With a null model, costs are the plain
/// measured totals (match inline).
[[nodiscard]] std::vector<util::WorkUnits> task_costs(std::span<const TaskMeasurement> tasks,
                                                      const MatchModel* model = nullptr);

/// The paper's dotted "theoretical speed-up limit" (Figures 7-8): Amdahl's
/// bound from the measured match fraction, total / (total - match).
[[nodiscard]] double match_speedup_limit(std::span<const TaskMeasurement> tasks);

}  // namespace psmsys::psm
