#include "psm/run.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "psm/queue.hpp"

namespace psmsys::psm {

namespace {

[[nodiscard]] std::string describe_errors(const std::vector<std::exception_ptr>& errors) {
  std::string msg = std::to_string(errors.size()) + " worker(s) failed:";
  for (const auto& e : errors) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      msg += std::string(" [") + ex.what() + "]";
    } catch (...) {
      msg += " [non-standard exception]";
    }
  }
  return msg;
}

void validate_tasks(const std::vector<Task>& tasks, std::size_t task_processes) {
  if (task_processes == 0) throw std::invalid_argument("need at least one task process");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].id != i) throw std::invalid_argument("task ids must be dense 0..n-1");
  }
}

enum class Disposition : std::uint8_t { Pending, Completed, Quarantined };

const char* attempt_result_name(AttemptResult r) {
  switch (r) {
    case AttemptResult::Completed: return "completed";
    case AttemptResult::Fault: return "fault";
    case AttemptResult::DeadlineExceeded: return "deadline_exceeded";
    case AttemptResult::WorkerDied: return "worker_died";
  }
  return "unknown";
}

/// Aggregate a report into a metrics snapshot (sums completed tasks'
/// counters; executor accounting; no engine gauges — run() fills those from
/// the live engines).
[[nodiscard]] obs::RunMetrics metrics_from(const RunReport& report,
                                           std::size_t task_processes) {
  obs::RunMetrics m;
  m.task_processes = task_processes;
  for (const auto id : report.completed_ids) {
    m.add_counters(report.measurements[id].counters);
  }
  m.tasks = report.completed_ids.size();
  m.retries = report.retries;
  m.requeues = report.requeues;
  m.quarantined = report.quarantined_ids.size();
  m.abandoned = report.abandoned_ids.size();
  m.dead_workers = report.dead_workers.size();
  m.wall_ns = report.wall.count();
  return m;
}

}  // namespace

WorkerFailure::WorkerFailure(std::vector<std::exception_ptr> worker_errors)
    : std::runtime_error(describe_errors(worker_errors)), errors(std::move(worker_errors)) {}

RunResult run(const TaskProcessFactory& factory, std::vector<Task> tasks,
              const RunOptions& options) {
  const std::size_t task_processes = options.task_processes;
  validate_tasks(tasks, task_processes);
  const std::size_t n_tasks = tasks.size();
  const bool strict = options.strict;
  const RobustnessPolicy& policy = options.robustness;
  // Fault injection models recoverable faults; strict mode has no recovery.
  const FaultInjector* injector = strict ? nullptr : options.injector;
  obs::Tracer* tracer = options.tracer;
  const std::size_t max_attempts =
      strict ? 1 : std::max<std::size_t>(policy.max_attempts, 1);

  RunResult result;
  RunReport& report = result.report;
  report.measurements.resize(n_tasks);
  report.executed_by.assign(n_tasks, 0);
  report.tasks_per_process.assign(task_processes, 0);
  report.attempts.assign(n_tasks, {});

  std::vector<Disposition> state(n_tasks, Disposition::Pending);
  std::vector<std::uint32_t> attempt_count(n_tasks, 0);
  std::mutex report_mutex;  // guards report bookkeeping + state + attempt_count
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> requeues{0};
  // Run-wide maxima of the per-engine OBS gauges (0 when compiled out).
  std::atomic<std::uint64_t> peak_conflict_set{0};
  std::atomic<std::uint64_t> peak_live_tokens{0};

  [[maybe_unused]] const auto fold_peak = [](std::atomic<std::uint64_t>& peak,
                                             std::uint64_t v) {
    std::uint64_t cur = peak.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  };

  TaskQueue queue(tasks, task_processes);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(task_processes);
    for (std::size_t p = 0; p < task_processes; ++p) {
      workers.emplace_back([&, p] {
        std::uint64_t my_pops = 0;
        std::vector<std::uint64_t> my_results;  // ids whose results live in this WM
        bool died = false;
        bool strict_failed = false;

        std::unique_ptr<TaskRunner> runner;
        try {
          runner = std::make_unique<TaskRunner>(factory);
        } catch (...) {
          // A task process that cannot even initialize is a dead worker.
          const std::lock_guard<std::mutex> lock(report_mutex);
          report.dead_workers.push_back(p);
          report.errors.push_back(std::current_exception());
          queue.worker_exited();
          return;
        }
        if (tracer != nullptr) {
          runner->engine().set_tracer(tracer, static_cast<std::uint32_t>(p));
        }

        while (const Task* task = queue.pop()) {
          const std::uint64_t id = task->id;
          ++my_pops;

          if (injector != nullptr && injector->kills(p, my_pops)) {
            // The process dies holding `id`: the held task plus every result
            // in this WM are stranded. Requeue them all for re-execution.
            {
              const std::lock_guard<std::mutex> lock(report_mutex);
              report.dead_workers.push_back(p);
              report.attempts[id].push_back(
                  {p, attempt_count[id], AttemptResult::WorkerDied, "worker killed"});
              for (const auto lost : my_results) {
                state[lost] = Disposition::Pending;
                --report.tasks_per_process[p];
                report.attempts[lost].push_back(
                    {p, attempt_count[lost], AttemptResult::WorkerDied,
                     "result lost with worker"});
              }
            }
            requeues.fetch_add(1 + my_results.size(), std::memory_order_relaxed);
            queue.requeue_lost(my_results);
            queue.finish(id, /*requeue_it=*/true);
            died = true;
            break;
          }

          // Attempt loop: local retries until completion or quarantine. Every failed attempt is rolled back, so the engine
          // state a successful attempt sees is bit-identical to a fault-free
          // run's.
          while (true) {
            std::uint32_t attempt = 0;
            {
              const std::lock_guard<std::mutex> lock(report_mutex);
              attempt = ++attempt_count[id];
            }

            TaskAttempt record{p, attempt, AttemptResult::Completed, {}};
            bool ok = false;
            std::exception_ptr error;
            const auto attempt_begin = tracer != nullptr
                                           ? obs::Tracer::Clock::now()
                                           : obs::Tracer::Clock::time_point{};
            std::uint64_t attempt_cost = 0;
            std::uint64_t attempt_cycles = 0;
            try {
              TaskMeasurement m = runner->attempt(
                  *task, {.number = attempt,
                          .cycle_deadline = policy.cycle_deadline,
                          .injector = injector});
              attempt_cost = m.counters.total_cost();
              attempt_cycles = m.counters.cycles;
              {
                const std::lock_guard<std::mutex> lock(report_mutex);
                report.measurements[id] = std::move(m);
                report.executed_by[id] = p;
                ++report.tasks_per_process[p];
                state[id] = Disposition::Completed;
                report.attempts[id].push_back(record);
              }
              my_results.push_back(id);
              ok = true;
            } catch (const TaskDeadlineExceeded& e) {
              record.result = AttemptResult::DeadlineExceeded;
              record.error = e.what();
              error = std::current_exception();
            } catch (const std::exception& e) {
              record.result = AttemptResult::Fault;
              record.error = e.what();
              error = std::current_exception();
            } catch (...) {
              record.result = AttemptResult::Fault;
              record.error = "non-standard exception";
              error = std::current_exception();
            }

            if (tracer != nullptr) {
              // One span per attempt, on the worker's lane, whatever the
              // outcome — the per-worker timeline is the point of the trace.
              obs::json::Object args;
              args.emplace_back("task", obs::json::Value(id));
              if (!task->label.empty()) {
                args.emplace_back("label", obs::json::Value(task->label));
              }
              args.emplace_back("attempt", obs::json::Value(attempt));
              args.emplace_back("result",
                                obs::json::Value(attempt_result_name(record.result)));
              args.emplace_back("cost_wu", obs::json::Value(attempt_cost));
              args.emplace_back("cycles", obs::json::Value(attempt_cycles));
              tracer->record_span(
                  task->label.empty() ? ("task " + std::to_string(id)) : task->label,
                  "task", attempt_begin, obs::Tracer::Clock::now(),
                  static_cast<std::uint32_t>(p), std::move(args));
            }
            // Engine gauges reset per task (peak_conflict_set) or survive
            // (rete token peak); sampling after every attempt keeps the
            // run-wide maxima exact either way.
            fold_peak(peak_conflict_set, runner->engine().peak_conflict_set());
            fold_peak(peak_live_tokens,
                      runner->engine().network().peak_live_tokens());
            if (ok) break;

            bool quarantined = false;
            {
              const std::lock_guard<std::mutex> lock(report_mutex);
              report.attempts[id].push_back(record);
              if (attempt >= max_attempts) {
                state[id] = Disposition::Quarantined;
                report.errors.push_back(error);
                quarantined = true;
              }
            }
            if (quarantined) {
              strict_failed = strict;
              break;
            }

            retries.fetch_add(1, std::memory_order_relaxed);
          }

          queue.finish(id, /*requeue_it=*/false);
          // Strict contract: a worker stops at its first failure (the error
          // is aggregated and thrown after the join).
          if (strict_failed) break;
        }

        queue.worker_exited();
        if (!died && !strict_failed && options.collect) {
          try {
            options.collect(p, runner->engine());
          } catch (...) {
            const std::lock_guard<std::mutex> lock(report_mutex);
            report.errors.push_back(std::current_exception());
          }
        }
      });
    }
  }  // jthreads join here
  report.wall = std::chrono::steady_clock::now() - start;

  report.retries = retries.load();
  report.requeues = requeues.load();
  report.status.resize(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    switch (state[i]) {
      case Disposition::Completed:
        report.status[i] = TaskStatus::Completed;
        report.completed_ids.push_back(i);
        break;
      case Disposition::Quarantined:
        report.status[i] = TaskStatus::Quarantined;
        report.quarantined_ids.push_back(i);
        break;
      case Disposition::Pending:
        report.status[i] = TaskStatus::Abandoned;  // every worker died first
        report.abandoned_ids.push_back(i);
        break;
    }
  }

  if (strict && !report.errors.empty()) {
    if (report.errors.size() == 1) std::rethrow_exception(report.errors.front());
    throw WorkerFailure(std::move(report.errors));
  }

  result.elapsed = report.wall;
  result.metrics = metrics_from(report, task_processes);
  result.metrics.peak_conflict_set = peak_conflict_set.load();
  result.metrics.peak_live_tokens = peak_live_tokens.load();
  return result;
}

}  // namespace psmsys::psm
