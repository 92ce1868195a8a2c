#include "psm/task.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "psm/faults.hpp"

namespace psmsys::psm {

/// Cycles an injected mid-task crash executes before dying: enough to leave
/// partial working-memory state behind, so recovery genuinely depends on the
/// engine's rollback.
constexpr std::uint64_t kCrashAfterCycles = 2;

util::WorkCounters counters_delta(const util::WorkCounters& before,
                                  const util::WorkCounters& after) noexcept {
  util::WorkCounters d;
  d.match_cost = after.match_cost - before.match_cost;
  d.alpha_tests = after.alpha_tests - before.alpha_tests;
  d.alpha_activations = after.alpha_activations - before.alpha_activations;
  d.join_probes = after.join_probes - before.join_probes;
  d.tokens_created = after.tokens_created - before.tokens_created;
  d.tokens_deleted = after.tokens_deleted - before.tokens_deleted;
  d.resolve_cost = after.resolve_cost - before.resolve_cost;
  d.rhs_cost = after.rhs_cost - before.rhs_cost;
  d.firings = after.firings - before.firings;
  d.rhs_actions = after.rhs_actions - before.rhs_actions;
  d.wmes_added = after.wmes_added - before.wmes_added;
  d.wmes_removed = after.wmes_removed - before.wmes_removed;
  d.cycles = after.cycles - before.cycles;
  return d;
}

TaskRunner::TaskRunner(const TaskProcessFactory& factory) : base_init_(factory.base_init) {
  if (!factory.make_engine) throw std::invalid_argument("factory needs make_engine");
  engine_ = factory.make_engine();
  if (base_init_) base_init_(*engine_);
  // Base-WM loading is initialization, not task work; its cycle records (none
  // should exist, the engine has not run) and counters are excluded by the
  // per-task delta measurement.
  cycle_offset_ = engine_->cycle_records().size();
}

TaskMeasurement TaskRunner::measure_from(const Task& task, const util::WorkCounters& before) {
  TaskMeasurement m;
  m.task_id = task.id;
  m.counters = counters_delta(before, engine_->counters());
  const auto records = engine_->cycle_records();
  m.cycles.assign(records.begin() + static_cast<std::ptrdiff_t>(cycle_offset_), records.end());
  cycle_offset_ = records.size();
  return m;
}

TaskMeasurement TaskRunner::run(const Task& task) {
  const util::WorkCounters before = engine_->counters();
  kept_ = true;
  task.inject(*engine_);
  (void)engine_->run();
  return measure_from(task, before);
}

std::uint64_t grown_deadline(std::uint64_t first, std::uint32_t number) noexcept {
  const std::uint32_t doublings = number > 1 ? number - 1 : 0;
  if (first == 0 || doublings == 0) return first;
  if (doublings >= 64 || first > (std::numeric_limits<std::uint64_t>::max() >> doublings)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return first << doublings;
}

// Roll the attempt in flight back through its undo log.
void TaskRunner::roll_back() {
  engine_->rollback_undo_log();
  cycle_offset_ = engine_->cycle_records().size();
}

// Runs the injected task to quiescence, in cancellation-polled slices when
// asked to. Returns true when the cycle deadline (or the engine's own
// max_cycles ceiling) cut the run off; throws TaskAborted when `cancelled`
// turns true between slices. The caller owns the undo log.
bool TaskRunner::run_sliced(std::uint64_t cycle_deadline, const std::function<bool()>& cancelled,
                            std::uint64_t cancel_check_every, std::uint64_t task_id) {
  if (!cancelled || cancel_check_every == 0) {
    return engine_->run(cycle_deadline).cycle_limited;
  }
  const std::uint64_t start = engine_->counters().cycles;
  while (true) {
    if (cancelled()) throw TaskAborted(task_id);
    std::uint64_t slice = cancel_check_every;
    if (cycle_deadline != 0) {
      const std::uint64_t used = engine_->counters().cycles - start;
      if (used >= cycle_deadline) return true;
      slice = std::min(slice, cycle_deadline - used);
    }
    const std::uint64_t before = engine_->counters().cycles;
    if (!engine_->run(slice).cycle_limited) return false;  // quiesced or halted
    // cycle_limited with less progress than the slice budget means the
    // engine's max_cycles ceiling stopped it — no further slice can advance.
    if (engine_->counters().cycles - before < slice) return true;
  }
}

TaskMeasurement TaskRunner::attempt(const Task& task, const AttemptOptions& options,
                                    const std::function<bool()>& cancelled,
                                    const std::function<void(ops5::Engine&)>& collect) {
  const FaultInjector* injector = options.injector;
  if (injector != nullptr && injector->fails(task.id, options.number)) {
    abort_after(task, kCrashAfterCycles);
    throw InjectedTaskFault(task.id, options.number);
  }
  const std::uint64_t deadline = injector != nullptr && injector->overruns(task.id, options.number)
                                     ? 1
                                     : grown_deadline(options.cycle_deadline, options.number);
  const util::WorkCounters before = engine_->counters();
  engine_->begin_undo_log();
  bool deadline_hit = false;
  try {
    task.inject(*engine_);
    deadline_hit = run_sliced(deadline, cancelled, options.cancel_check_every, task.id);
    if (!deadline_hit && collect) collect(*engine_);
  } catch (...) {
    roll_back();
    throw;
  }
  if (deadline_hit) {
    roll_back();
    throw TaskDeadlineExceeded(task.id, deadline);
  }
  TaskMeasurement m = measure_from(task, before);
  if (options.discard) {
    roll_back();
  } else {
    engine_->commit_undo_log();
    kept_ = true;
  }
  return m;
}

void TaskRunner::abort_after(const Task& task, std::uint64_t cycles) {
  engine_->begin_undo_log();
  try {
    task.inject(*engine_);
    (void)engine_->run(cycles == 0 ? 1 : cycles);
  } catch (...) {
    roll_back();
    throw;
  }
  roll_back();
}

void TaskRunner::begin_stream() {
  if (stream_active_) throw std::logic_error("stream already active");
  if (kept_) throw std::logic_error("stream opened on an engine that is not at its base");
  stream_active_ = true;
}

void TaskRunner::end_stream() {
  if (!stream_active_) throw std::logic_error("no active stream to end");
  stream_active_ = false;
  if (!kept_) return;
  engine_->reset(base_init_);
  kept_ = false;
  cycle_offset_ = engine_->cycle_records().size();
}

}  // namespace psmsys::psm
