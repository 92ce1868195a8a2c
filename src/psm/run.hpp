#pragma once

// The unified PSM executor surface.
//
// One entry point — psm::run(factory, tasks, options) — replaced the old
// run_threaded / run_robust pair (PR 3; the deprecated shims are gone now
// that every caller goes through here). Strict mode is sugar over the
// robust core: a single attempt per task, the worker stops at its first
// failure, and the run throws instead of degrading. Every run returns a
// RunResult carrying the full RunReport, an obs::RunMetrics snapshot
// (aggregated engine counters + executor accounting + the OBS-only peak
// gauges), and the host wall-clock. Attaching an obs::Tracer yields a Chrome
// trace_event timeline: one always-recorded span per task attempt on the
// executing worker's lane, plus sampled per-cycle engine spans.

#include <chrono>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "psm/faults.hpp"
#include "psm/sim.hpp"
#include "psm/task.hpp"

namespace psmsys::obs {
class Tracer;
}

namespace psmsys::psm {

/// Called once per task process after the queue is drained, from that
/// worker's thread, so the control process can collect results from the
/// process's working memory (Section 5.1: the control process "collects
/// from them the results"). Must synchronize its own sink.
using CollectFn = std::function<void(std::size_t process, ops5::Engine& engine)>;

/// Thrown by strict-mode runs when workers fail: carries *every* worker's
/// error, not just the first, so multi-worker failures are diagnosable.
class WorkerFailure : public std::runtime_error {
 public:
  explicit WorkerFailure(std::vector<std::exception_ptr> worker_errors);

  std::vector<std::exception_ptr> errors;
};

/// A failed attempt is retried at once, on the same task process, with the
/// cycle deadline doubled (grown_deadline).
struct RobustnessPolicy {
  /// Attempts per task before it is quarantined (>= 1).
  std::size_t max_attempts = 3;
  /// The first attempt's recognize-act cycle budget (0 = unlimited): the
  /// deadline that cuts off livelocked tasks via the engine's cycle-limit
  /// machinery.
  std::uint64_t cycle_deadline = 0;
};

/// Why a task attempt ended.
enum class AttemptResult : std::uint8_t {
  Completed,         ///< ran to quiescence; measurement recorded
  Fault,             ///< the attempt threw (injected or real); rolled back
  DeadlineExceeded,  ///< cut off by the cycle deadline; rolled back
  WorkerDied,        ///< the executing process died; results lost, task requeued
};

struct TaskAttempt {
  std::size_t process = 0;
  std::uint32_t number = 0;  ///< 1-based attempt number
  AttemptResult result = AttemptResult::Completed;
  std::string error;  ///< what() for Fault / DeadlineExceeded
};

/// Terminal disposition of a task in a run.
enum class TaskStatus : std::uint8_t {
  Completed,    ///< measurement + collected WM are valid
  Quarantined,  ///< failed max_attempts times; reported, not lost
  Abandoned,    ///< every worker died before it could run (no survivors)
};

/// Graceful degradation: what a robust run produced instead of an
/// all-or-nothing result. Every task id appears exactly once in
/// completed_ids ∪ quarantined_ids ∪ abandoned_ids.
struct RunReport {
  // Partial results (valid for completed tasks).
  std::vector<TaskMeasurement> measurements;   ///< by task id; final attempt's
  std::vector<std::size_t> executed_by;        ///< process of the final completion
  std::vector<std::size_t> tasks_per_process;  ///< surviving results per process
  std::chrono::nanoseconds wall{};

  // Accounting.
  std::vector<TaskStatus> status;                 ///< by task id
  std::vector<std::vector<TaskAttempt>> attempts; ///< by task id, in order
  std::vector<std::uint64_t> completed_ids;
  std::vector<std::uint64_t> quarantined_ids;
  std::vector<std::uint64_t> abandoned_ids;
  std::vector<std::size_t> dead_workers;       ///< processes that died mid-run
  std::uint64_t retries = 0;                   ///< attempts beyond each task's first
  std::uint64_t requeues = 0;                  ///< strandings recovered from dead workers
  /// Errors from quarantined tasks' final attempts (diagnosable, aggregated).
  std::vector<std::exception_ptr> errors;

  [[nodiscard]] bool complete() const noexcept {
    return quarantined_ids.empty() && abandoned_ids.empty();
  }
  [[nodiscard]] bool degraded() const noexcept {
    return !complete() || !dead_workers.empty();
  }
};

/// Options for psm::run.
struct RunOptions {
  std::size_t task_processes = 1;

  /// Strict mode: one attempt per task, the failing worker stops, and run()
  /// throws (the single error with its original type, or a WorkerFailure
  /// aggregating several). Fault injection is ignored in strict mode.
  /// Robust mode (default) never throws for task/worker failures — the
  /// degradation is reported in RunResult::report.
  bool strict = false;

  RobustnessPolicy robustness{};

  /// Deterministic fault injection (robust mode only); may be null. Not
  /// owned; must outlive the run.
  const FaultInjector* injector = nullptr;

  /// Post-drain result collection, per worker.
  CollectFn collect{};

  /// Span sink: one "task" span per attempt plus sampled engine "cycle"
  /// spans (see obs::Tracer::set_sample_every). Null = no tracing. Not
  /// owned; must outlive the run.
  obs::Tracer* tracer = nullptr;
};

/// Everything a run produced: the per-task report, the aggregated metrics
/// snapshot, and the host wall-clock (same value as report.wall).
struct RunResult {
  RunReport report;
  obs::RunMetrics metrics;
  std::chrono::nanoseconds elapsed{};

  // Forwarding accessors for the common fields.
  [[nodiscard]] const std::vector<TaskMeasurement>& measurements() const noexcept {
    return report.measurements;
  }
  [[nodiscard]] const std::vector<std::size_t>& executed_by() const noexcept {
    return report.executed_by;
  }
  [[nodiscard]] const std::vector<std::size_t>& tasks_per_process() const noexcept {
    return report.tasks_per_process;
  }
  [[nodiscard]] bool complete() const noexcept { return report.complete(); }
  [[nodiscard]] bool degraded() const noexcept { return report.degraded(); }
};

/// Execute a task decomposition on real threads. See RunOptions for the
/// strict/robust contract. Task ids must be dense 0..n-1.
[[nodiscard]] RunResult run(const TaskProcessFactory& factory, std::vector<Task> tasks,
                            const RunOptions& options = {});

}  // namespace psmsys::psm
