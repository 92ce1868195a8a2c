#pragma once

// SPAM/PSM task abstraction (Section 5.1).
//
// A task "is just a working memory element, which initializes the production
// system of the process": here, an inject function that adds the task WME(s)
// to a task process's engine. A task process is an Engine plus the base
// working memory copied from the control process; it executes tasks one
// after another, measuring each task's work-unit cost and per-cycle records.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops5/engine.hpp"
#include "util/counters.hpp"

namespace psmsys::psm {

struct Task {
  std::uint64_t id = 0;        ///< dense index; also the FIFO queue position
  std::string label;
  std::function<void(ops5::Engine&)> inject;
};

/// What executing one task cost (deltas over the task process's engine).
struct TaskMeasurement {
  std::uint64_t task_id = 0;
  util::WorkCounters counters;                ///< cost/ops delta for this task
  std::vector<ops5::CycleRecord> cycles;      ///< per-cycle records (if enabled)

  [[nodiscard]] util::WorkUnits cost() const noexcept { return counters.total_cost(); }
};

[[nodiscard]] util::WorkCounters counters_delta(const util::WorkCounters& before,
                                                const util::WorkCounters& after) noexcept;

/// Builds engines for task processes. The engine must come fully configured
/// (program, externals, user data); `base_init` loads the control process's
/// initial working memory. Both run at task-process startup — the paper's
/// measurement interval starts only after "all the task processes have
/// performed their initializations" (Section 5.2), and ours does too.
struct TaskProcessFactory {
  std::function<std::unique_ptr<ops5::Engine>()> make_engine;
  std::function<void(ops5::Engine&)> base_init;
};

/// Thrown by TaskRunner::run_guarded when an attempt exceeds its cycle
/// deadline. The attempt's working-memory effects have already been rolled
/// back when this escapes.
class TaskDeadlineExceeded : public std::runtime_error {
 public:
  TaskDeadlineExceeded(std::uint64_t task_id, std::uint64_t cycle_deadline)
      : std::runtime_error("task " + std::to_string(task_id) + " exceeded its deadline of " +
                           std::to_string(cycle_deadline) + " cycles"),
        task_id(task_id),
        cycle_deadline(cycle_deadline) {}

  std::uint64_t task_id;
  std::uint64_t cycle_deadline;
};

/// Thrown by TaskRunner::run_guarded / run_isolated when the caller's
/// cancellation predicate turns true between execution slices (the serve
/// watchdog's wall-clock abort). The attempt's working-memory effects have
/// already been rolled back when this escapes.
class TaskAborted : public std::runtime_error {
 public:
  explicit TaskAborted(std::uint64_t task_id)
      : std::runtime_error("task " + std::to_string(task_id) + " aborted"), task_id(task_id) {}

  std::uint64_t task_id;
};

/// One task process: engine + base WM, executing tasks sequentially.
class TaskRunner {
 public:
  /// Builds the engine with the factory and loads the base working memory.
  explicit TaskRunner(const TaskProcessFactory& factory);

  /// Inject the task, run to quiescence, and return the measured deltas.
  TaskMeasurement run(const Task& task);

  /// Fault-tolerant attempt: journaled execution under a per-attempt cycle
  /// deadline (0 = unlimited). If the deadline cuts the run off, or the
  /// task's inject/rules throw, the engine is rolled back bit-identically
  /// to its pre-attempt state (working memory, timetags, recency) and the
  /// error propagates (TaskDeadlineExceeded for deadline cuts). On success
  /// the measurement is exactly what run() would have produced.
  ///
  /// When both `cancelled` and `cancel_check_every` are set, execution runs
  /// in slices of `cancel_check_every` cycles and polls `cancelled` between
  /// slices; a true result rolls back and throws TaskAborted. Slicing changes
  /// neither firing order nor measurements — the conflict set carries over
  /// between run() calls untouched.
  TaskMeasurement run_guarded(const Task& task, std::uint64_t cycle_deadline = 0,
                              const std::function<bool()>& cancelled = {},
                              std::uint64_t cancel_check_every = 0);

  /// Session-style attempt: like run_guarded, but the attempt's WM effects
  /// are ALWAYS rolled back — after `collect` (if given) has read results out
  /// of working memory. The engine therefore returns to its base state
  /// bit-identically (WMEs, timetags, recency) whether the task succeeded,
  /// overran, or threw, which is what lets one resident engine serve an
  /// arbitrary scene sequence with per-scene output independent of ordering.
  /// A throwing `collect` also rolls back, then rethrows.
  TaskMeasurement run_isolated(const Task& task, std::uint64_t cycle_deadline = 0,
                               const std::function<bool()>& cancelled = {},
                               std::uint64_t cancel_check_every = 0,
                               const std::function<void(ops5::Engine&)>& collect = {});

  /// Fault-simulation helper: start the task for real, execute at most
  /// `cycles` recognize-act cycles, then abort and roll back — the mid-task
  /// crash the injector uses to prove recovery leaves no partial state.
  void abort_after(const Task& task, std::uint64_t cycles);

  // ------------------------------ streaming -------------------------------
  //
  // A stream holds the undo log open across many ticks: begin_stream() opens
  // the journal, each run_tick() snapshots a checkpoint and keeps its WM
  // effects on success (rolling back only its own tail on failure), and
  // end_stream() rolls the whole journal back so the engine returns to its
  // base state bit-identically — the same recovery contract run_isolated()
  // gives a single scene, stretched over a tick sequence.

  /// Open the stream journal. Throws if a stream (or any undo log) is
  /// already active.
  void begin_stream();

  /// Execute one tick inside an open stream: checkpoint, inject, run to
  /// quiescence under the same deadline/cancellation discipline as
  /// run_isolated, then `collect` (if given) reads results out of WM. On
  /// success the tick's WM effects STAY (that is the point of a stream); on
  /// deadline cut, cancellation, or any throw the engine is rolled back to
  /// the tick's checkpoint — earlier ticks' effects survive — and the error
  /// propagates (TaskDeadlineExceeded / TaskAborted / original exception).
  TaskMeasurement run_tick(const Task& task, std::uint64_t cycle_deadline = 0,
                           const std::function<bool()>& cancelled = {},
                           std::uint64_t cancel_check_every = 0,
                           const std::function<void(ops5::Engine&)>& collect = {});

  /// Fault-simulation helper for streams: like abort_after, but scoped to a
  /// tick checkpoint inside the open stream journal instead of opening its
  /// own undo log.
  void abort_tick_after(const Task& task, std::uint64_t cycles);

  /// Close the stream: roll back every tick's effects so the engine is
  /// bit-identical to its pre-begin_stream() state.
  void end_stream();

  [[nodiscard]] bool stream_active() const noexcept;

  [[nodiscard]] ops5::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const ops5::Engine& engine() const noexcept { return *engine_; }

 private:
  TaskMeasurement measure_from(const Task& task, const util::WorkCounters& before);
  bool run_sliced(std::uint64_t cycle_deadline, const std::function<bool()>& cancelled,
                  std::uint64_t cancel_check_every, std::uint64_t task_id);
  void rollback();

  std::unique_ptr<ops5::Engine> engine_;
  std::size_t cycle_offset_ = 0;
  bool stream_active_ = false;
};

}  // namespace psmsys::psm
