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

class FaultInjector;

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

/// Thrown by TaskRunner::attempt when an attempt exceeds its cycle deadline,
/// after its working-memory effects have been rolled back.
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

/// Thrown by TaskRunner::attempt when the caller's cancellation predicate
/// turns true between execution slices (the serve watchdog's wall-clock
/// abort), after the attempt's working-memory effects have been rolled back.
class TaskAborted : public std::runtime_error {
 public:
  explicit TaskAborted(std::uint64_t task_id)
      : std::runtime_error("task " + std::to_string(task_id) + " aborted"), task_id(task_id) {}

  std::uint64_t task_id;
};

/// The cycle budget of attempt `number` (1-based) of a task whose first
/// attempt gets `first` (0 = unlimited): it doubles per retry, so a task that
/// was merely slow, not livelocked, can still complete before quarantine. It
/// saturates at the largest budget instead of wrapping.
[[nodiscard]] std::uint64_t grown_deadline(std::uint64_t first, std::uint32_t number) noexcept;

/// How one attempt at a task runs.
struct AttemptOptions {
  /// 1-based attempt number: it grows the deadline and keys the injector.
  std::uint32_t number = 1;
  /// The first attempt's recognize-act cycle budget (0 = unlimited).
  std::uint64_t cycle_deadline = 0;
  /// Cycles between polls of the cancellation predicate (0 = never poll).
  std::uint64_t cancel_check_every = 0;
  /// Crash and overrun plan keyed by (task id, number); may be null.
  const FaultInjector* injector = nullptr;
  /// Roll a successful attempt back too, after collect.
  bool discard = false;
};

/// One task process: engine + base WM, executing tasks sequentially.
class TaskRunner {
 public:
  /// Builds the engine with the factory and loads the base working memory.
  explicit TaskRunner(const TaskProcessFactory& factory);

  /// Inject the task, run to quiescence, and return the measured deltas.
  TaskMeasurement run(const Task& task);

  /// One fault-tolerant attempt under its own undo log, inside a stream or
  /// not. It injects the task, runs it to quiescence under
  /// grown_deadline(cycle_deadline, number), polling `cancelled` every
  /// `cancel_check_every` cycles when both are set, then lets `collect` read
  /// working memory. A success commits its effects unless `discard` rolls
  /// them back after collect. A deadline cut (or the engine's max_cycles
  /// ceiling), a cancellation, or a throw from inject, the rules or collect
  /// rolls the engine back bit-identically to where the attempt began
  /// (working memory, timetags, recency) and propagates:
  /// TaskDeadlineExceeded, TaskAborted, or the original exception. The
  /// injector's failed attempts crash two cycles in through abort_after()
  /// and throw InjectedTaskFault; its overruns get a deadline of 1 cycle, as
  /// a livelock would. Slicing and the undo log change neither firing order
  /// nor measurements.
  TaskMeasurement attempt(const Task& task, const AttemptOptions& options = {},
                          const std::function<bool()>& cancelled = {},
                          const std::function<void(ops5::Engine&)>& collect = {});

  /// An attempt whose effects are always rolled back, after `collect` has
  /// read results: the engine returns to its base state whether the task
  /// succeeded, overran, or threw.
  TaskMeasurement run_isolated(const Task& task, std::uint64_t cycle_deadline = 0,
                               const std::function<bool()>& cancelled = {},
                               std::uint64_t cancel_check_every = 0,
                               const std::function<void(ops5::Engine&)>& collect = {}) {
    return attempt(task,
                   {.cycle_deadline = cycle_deadline,
                    .cancel_check_every = cancel_check_every,
                    .discard = true},
                   cancelled, collect);
  }

  /// Fault simulation: start the task for real under its own undo log,
  /// execute at most `cycles` cycles, then roll it back — the mid-task crash
  /// that proves recovery leaves no partial state.
  void abort_after(const Task& task, std::uint64_t cycles);

  // ------------------------------ streaming -------------------------------
  //
  // A stream keeps its ticks' working memory resident between them. Each
  // attempt() inside it journals and commits only itself, as one outside a
  // stream does: a failed tick rolls back its own undo log, and earlier
  // ticks' effects survive. end_stream() returns the engine to its base by
  // reloading it, Engine::reset() and then the factory's base_init, if any
  // tick kept its effects; a stream of discarded attempts has nothing to
  // reload. The close costs one base load however long the stream ran, and
  // it is exact by construction: base_init is deterministic (every task
  // process is built with it) and reset() restarts timetags and
  // instantiation sequence numbers, so working memory, timetags, recency,
  // the unfired base instantiations and the counters equal a freshly built
  // task process's.

  /// Open a stream. Throws if one is already open, or if effects kept
  /// outside a stream (run(), a committed attempt) mean the engine is not at
  /// its base, which the close would discard.
  void begin_stream();

  /// Close the stream: reload the base working memory if some tick kept its
  /// effects, so the engine equals a freshly built task process's.
  void end_stream();

  [[nodiscard]] ops5::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const ops5::Engine& engine() const noexcept { return *engine_; }

 private:
  TaskMeasurement measure_from(const Task& task, const util::WorkCounters& before);
  bool run_sliced(std::uint64_t cycle_deadline, const std::function<bool()>& cancelled,
                  std::uint64_t cancel_check_every, std::uint64_t task_id);
  void roll_back();

  std::function<void(ops5::Engine&)> base_init_;
  std::unique_ptr<ops5::Engine> engine_;
  std::size_t cycle_offset_ = 0;
  bool stream_active_ = false;
  /// The engine holds effects beyond its base working memory.
  bool kept_ = false;
};

}  // namespace psmsys::psm
