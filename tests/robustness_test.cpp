// Fault-tolerant task execution (robust psm::run): deterministic fault injection,
// retry with rollback, quarantine, dead-worker strand recovery, and graceful
// degradation. The paper's TLP argument rests on tasks being independent
// OPS5 runs handed out from a central queue — which is exactly what makes
// each of them individually restartable; these tests prove the executor
// exploits that: injected faults never change the computed results, only
// the accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>

#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::psm {
namespace {

RunOptions robust_opts(std::size_t procs, RobustnessPolicy policy = {},
                       const FaultInjector* injector = nullptr, CollectFn collect = {}) {
  RunOptions options;
  options.task_processes = procs;
  options.robustness = policy;
  options.injector = injector;
  options.collect = std::move(collect);
  return options;
}

RunOptions strict_opts(std::size_t procs) {
  RunOptions options;
  options.task_processes = procs;
  options.strict = true;
  return options;
}

// ---------------------------------------------------------------------------
// Synthetic micro-workload: cheap tasks over a tiny rule base
// ---------------------------------------------------------------------------

constexpr const char* kTinySrc = R"(
(literalize job n)
(literalize result n)
(literalize spin n)
(literalize ctr n)
(p finish (job ^n <v>) -(result ^n <v>) --> (make result ^n <v>))
(p spin-forever (spin ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
(p count-to-30 (ctr ^n {<v> < 30}) --> (modify 1 ^n (compute <v> + 1)))
)";

struct TinyWorkload {
  std::shared_ptr<const ops5::Program> program =
      std::make_shared<const ops5::Program>(ops5::parse_program(kTinySrc));

  [[nodiscard]] TaskProcessFactory factory() const {
    TaskProcessFactory f;
    const auto prog = program;
    f.make_engine = [prog] { return std::make_unique<ops5::Engine>(prog, nullptr); };
    return f;
  }

  /// A task that makes one `result` WME.
  [[nodiscard]] static Task good(std::uint64_t id) {
    Task t;
    t.id = id;
    t.label = "good";
    t.inject = [id](ops5::Engine& engine) {
      engine.make_wme("job", {{"n", ops5::Value(static_cast<double>(id))}});
    };
    return t;
  }

  /// A task whose inject always throws — a genuinely poisoned task.
  [[nodiscard]] static Task poison(std::uint64_t id) {
    Task t;
    t.id = id;
    t.label = "poison";
    t.inject = [](ops5::Engine&) { throw std::runtime_error("poison task"); };
    return t;
  }

  /// A task that livelocks: fires forever until a deadline cuts it off.
  [[nodiscard]] static Task runaway(std::uint64_t id) {
    Task t;
    t.id = id;
    t.label = "runaway";
    t.inject = [](ops5::Engine& engine) {
      engine.make_wme("spin", {{"n", ops5::Value(0.0)}});
    };
    return t;
  }

  /// A task that needs ~30 cycles — slow, but finite.
  [[nodiscard]] static Task slow(std::uint64_t id) {
    Task t;
    t.id = id;
    t.label = "slow";
    t.inject = [](ops5::Engine& engine) {
      engine.make_wme("ctr", {{"n", ops5::Value(0.0)}});
    };
    return t;
  }
};

[[nodiscard]] std::size_t count_results(ops5::Engine& engine) {
  return engine.wmes_of_class("result").size();
}

/// Every task id appears exactly once across completed/quarantined/abandoned.
void expect_exact_accounting(const RunReport& report, std::size_t n_tasks) {
  std::set<std::uint64_t> seen;
  for (const auto id : report.completed_ids) EXPECT_TRUE(seen.insert(id).second);
  for (const auto id : report.quarantined_ids) EXPECT_TRUE(seen.insert(id).second);
  for (const auto id : report.abandoned_ids) EXPECT_TRUE(seen.insert(id).second);
  EXPECT_EQ(seen.size(), n_tasks);
  ASSERT_EQ(report.status.size(), n_tasks);
  ASSERT_EQ(report.attempts.size(), n_tasks);
}

// ---------------------------------------------------------------------------
// Refraction across a retried attempt: an instantiation of the base working
// memory that fired in a crashed first attempt must fire again on the retry,
// exactly as it would have in an attempt that never crashed.
// ---------------------------------------------------------------------------

TEST(RunRobust, RetryAfterFaultFiresBaseInstantiationAgain) {
  const auto program = std::make_shared<const ops5::Program>(ops5::parse_program(R"(
(literalize base x)
(literalize trigger n)
(literalize seen n)
(p on-trigger (trigger ^n <n>) --> (make seen ^n <n>))
(p on-base (base ^x 1) --> (make seen ^n 1))
)"));
  TaskProcessFactory factory;
  factory.make_engine = [program] { return std::make_unique<ops5::Engine>(program, nullptr); };
  factory.base_init = [](ops5::Engine& engine) {
    engine.make_wme("base", {{"x", ops5::Value(1.0)}});
  };
  Task task;
  task.id = 0;
  task.label = "trigger";
  task.inject = [](ops5::Engine& engine) {
    engine.make_wme("trigger", {{"n", ops5::Value(7.0)}});
  };

  FaultConfig faults;
  faults.transient_rate = 0.5;
  for (faults.seed = 1;; ++faults.seed) {
    const FaultInjector probe(faults);
    if (probe.fails(0, 1) && !probe.fails(0, 2)) break;
  }
  const FaultInjector injector(faults);
  std::size_t seen = 0;
  const RunResult result = run(factory, {task},
                               robust_opts(1, {}, &injector, [&](std::size_t, ops5::Engine& e) {
                                 seen = e.wmes_of_class("seen").size();
                               }));
  ASSERT_TRUE(result.report.complete());
  ASSERT_EQ(result.report.attempts[0].size(), 2u);
  EXPECT_EQ(result.report.attempts[0][0].result, AttemptResult::Fault);
  EXPECT_EQ(seen, 2u);  // on-trigger and on-base, as in an uncrashed run
}

// ---------------------------------------------------------------------------
// Quarantine: poison tasks are reported, not lost — and never sink the run
// ---------------------------------------------------------------------------

TEST(RunRobust, PoisonTasksQuarantinedNotLost) {
  TinyWorkload workload;
  std::vector<Task> tasks;
  for (std::uint64_t i = 0; i < 5; ++i) {
    tasks.push_back(i == 2 ? TinyWorkload::poison(i) : TinyWorkload::good(i));
  }

  RobustnessPolicy policy;
  policy.max_attempts = 2;
  std::mutex mu;
  std::size_t results = 0;
  const auto collect = [&](std::size_t, ops5::Engine& engine) {
    const std::lock_guard<std::mutex> lock(mu);
    results += count_results(engine);
  };
  const auto report =
      run(workload.factory(), tasks, robust_opts(2, policy, nullptr, collect)).report;

  expect_exact_accounting(report, 5);
  EXPECT_EQ(report.quarantined_ids, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(report.completed_ids.size(), 4u);
  EXPECT_TRUE(report.abandoned_ids.empty());
  EXPECT_FALSE(report.complete());
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(results, 4u);  // completed work survived the poison task
  // Both attempts of the poison task are on record, with the error text.
  ASSERT_EQ(report.attempts[2].size(), 2u);
  EXPECT_EQ(report.attempts[2][0].result, AttemptResult::Fault);
  EXPECT_EQ(report.attempts[2][1].result, AttemptResult::Fault);
  EXPECT_NE(report.attempts[2][1].error.find("poison"), std::string::npos);
  EXPECT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.retries, 1u);
}

// ---------------------------------------------------------------------------
// Deadlines: livelocked tasks are cut off; slow-but-finite tasks complete
// under deadline growth
// ---------------------------------------------------------------------------

TEST(RunRobust, RunawayTaskDeadlineQuarantinedWithoutPollutingProcess) {
  TinyWorkload workload;
  std::vector<Task> tasks;
  tasks.push_back(TinyWorkload::good(0));
  tasks.push_back(TinyWorkload::runaway(1));
  tasks.push_back(TinyWorkload::good(2));  // runs after the runaway, same process

  RobustnessPolicy policy;
  policy.max_attempts = 3;
  policy.cycle_deadline = 10;
  policy.deadline_growth = 2.0;
  std::size_t results = 0;
  const auto collect = [&](std::size_t, ops5::Engine& engine) { results += count_results(engine); };
  const auto report =
      run(workload.factory(), tasks, robust_opts(1, policy, nullptr, collect)).report;

  expect_exact_accounting(report, 3);
  EXPECT_EQ(report.quarantined_ids, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(report.completed_ids.size(), 2u);
  EXPECT_EQ(results, 2u);  // the aborted attempts left no spin WME behind
  ASSERT_EQ(report.attempts[1].size(), 3u);
  for (const auto& attempt : report.attempts[1]) {
    EXPECT_EQ(attempt.result, AttemptResult::DeadlineExceeded);
  }
}

TEST(RunRobust, SlowTaskCompletesUnderDeadlineGrowth) {
  TinyWorkload workload;
  std::vector<Task> tasks;
  tasks.push_back(TinyWorkload::slow(0));  // needs ~30 cycles

  RobustnessPolicy policy;
  policy.max_attempts = 3;
  policy.cycle_deadline = 10;  // attempts get 10, 20, 40 cycles
  policy.deadline_growth = 2.0;
  const auto report = run(workload.factory(), tasks, robust_opts(1, policy)).report;

  expect_exact_accounting(report, 1);
  EXPECT_EQ(report.completed_ids.size(), 1u);
  EXPECT_EQ(report.retries, 2u);
  ASSERT_EQ(report.attempts[0].size(), 3u);
  EXPECT_EQ(report.attempts[0][0].result, AttemptResult::DeadlineExceeded);
  EXPECT_EQ(report.attempts[0][1].result, AttemptResult::DeadlineExceeded);
  EXPECT_EQ(report.attempts[0][2].result, AttemptResult::Completed);
}

TEST(RunRobust, BackoffSleepsAccompanyRetries) {
  TinyWorkload workload;
  std::vector<Task> tasks{TinyWorkload::good(0), TinyWorkload::good(1)};

  FaultConfig faults;
  faults.seed = 5;
  faults.transient_rate = 1.0;  // every attempt fails...
  FaultInjector injector(faults);
  RobustnessPolicy policy;
  policy.max_attempts = 3;  // ...so both tasks burn all attempts
  policy.backoff_base = std::chrono::microseconds{50};
  const auto report = run(workload.factory(), tasks, robust_opts(1, policy, &injector)).report;

  expect_exact_accounting(report, 2);
  EXPECT_EQ(report.quarantined_ids.size(), 2u);
  EXPECT_EQ(report.retries, 4u);  // 2 retries per task
  EXPECT_EQ(report.backoff_sleeps, 4u);
}

// ---------------------------------------------------------------------------
// The real workload: DC dataset, LCC Level 3
// ---------------------------------------------------------------------------

class RobustLccTest : public ::testing::Test {
 protected:
  RobustLccTest()
      : scene_(spam::generate_scene(spam::dc_config())),
        best_(spam::best_fragments(spam::run_rtf(scene_, 3).fragments)),
        decomposition_(spam::lcc_decomposition(3, scene_, best_)) {}

  [[nodiscard]] std::vector<spam::ConsistencyRecord> run_and_merge(
      std::size_t procs, const RobustnessPolicy& policy, const FaultInjector* injector,
      RunReport* out = nullptr) {
    std::mutex mu;
    std::vector<spam::ConsistencyRecord> merged;
    const auto collect = [&](std::size_t, ops5::Engine& engine) {
      auto records = spam::extract_consistency(engine);
      const std::lock_guard<std::mutex> lock(mu);
      merged.insert(merged.end(), records.begin(), records.end());
    };
    auto report = run(decomposition_.factory, decomposition_.tasks,
                      robust_opts(procs, policy, injector, collect))
                      .report;
    std::sort(merged.begin(), merged.end());
    if (out != nullptr) *out = std::move(report);
    return merged;
  }

  spam::Scene scene_;
  std::vector<spam::Fragment> best_;
  spam::Decomposition decomposition_;
};

TEST_F(RobustLccTest, NoFaultsMatchesStrictExecutorBitIdentically) {
  const auto strict =
      run(decomposition_.factory, decomposition_.tasks, strict_opts(1)).report;
  RunReport report;
  const auto merged_robust = run_and_merge(1, RobustnessPolicy{}, nullptr, &report);
  const auto n = decomposition_.tasks.size();

  expect_exact_accounting(report, n);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.retries, 0u);
  ASSERT_EQ(report.measurements.size(), strict.measurements.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = strict.measurements[i];
    const auto& b = report.measurements[i];
    EXPECT_EQ(a.counters.total_cost(), b.counters.total_cost());
    EXPECT_EQ(a.counters.firings, b.counters.firings);
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.wmes_added, b.counters.wmes_added);
    EXPECT_EQ(a.counters.wmes_removed, b.counters.wmes_removed);
    EXPECT_EQ(strict.executed_by[i], report.executed_by[i]);
  }
}

TEST_F(RobustLccTest, ResultsIdenticalWithAndWithoutRetriesForAnyProcessCount) {
  // Baseline: fault-free single process.
  const auto baseline = run_and_merge(1, RobustnessPolicy{}, nullptr);
  ASSERT_FALSE(baseline.empty());

  // Transient faults on ~30% of attempts: every failed attempt really
  // executes a couple of cycles before rolling back, so this exercises
  // recovery, not just skipping. Results must not change — for any number
  // of task processes.
  FaultConfig faults;
  faults.seed = 2026;
  faults.transient_rate = 0.3;
  const FaultInjector injector(faults);
  RobustnessPolicy policy;
  policy.max_attempts = 8;  // transient faults heal well before this

  for (const std::size_t procs : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    RunReport report;
    const auto merged = run_and_merge(procs, policy, &injector, &report);
    EXPECT_EQ(merged, baseline) << "procs=" << procs;
    expect_exact_accounting(report, decomposition_.tasks.size());
    EXPECT_TRUE(report.complete()) << "procs=" << procs;
    EXPECT_GT(report.retries, 0u) << "the injector must actually have fired";

    // At one process the schedule matches the fault-free baseline exactly,
    // so even the per-task cost measurements must be bit-identical: rolled
    // back attempts leave no trace in the engine. (For >1 process the
    // per-task costs legitimately depend on which engine ran the task.)
    if (procs == 1) {
      const auto clean =
          run(decomposition_.factory, decomposition_.tasks, strict_opts(1)).report;
      for (std::size_t i = 0; i < clean.measurements.size(); ++i) {
        EXPECT_EQ(clean.measurements[i].counters.total_cost(),
                  report.measurements[i].counters.total_cost());
        EXPECT_EQ(clean.measurements[i].counters.firings, report.measurements[i].counters.firings);
      }
    }
  }
}

TEST_F(RobustLccTest, WorkerDeathMidQueueStillDrainsAllTasks) {
  const auto baseline = run_and_merge(1, RobustnessPolicy{}, nullptr);

  FaultConfig faults;
  faults.kill_worker = 0;
  faults.kill_at_pop = 2;  // dies holding its second task, results lost with it
  const FaultInjector injector(faults);

  RunReport report;
  const auto merged = run_and_merge(3, RobustnessPolicy{}, &injector, &report);

  expect_exact_accounting(report, decomposition_.tasks.size());
  EXPECT_TRUE(report.complete());  // every task still completed
  EXPECT_TRUE(report.degraded());  // ...but the run lost a worker
  EXPECT_EQ(report.dead_workers, (std::vector<std::size_t>{0}));
  EXPECT_GE(report.requeues, 1u);  // the stranded task (+ any lost results)
  EXPECT_EQ(merged, baseline);     // re-execution restored the lost results

  // The dead worker holds no surviving results.
  EXPECT_EQ(report.tasks_per_process[0], 0u);
  const std::size_t total = std::accumulate(report.tasks_per_process.begin(),
                                            report.tasks_per_process.end(), std::size_t{0});
  EXPECT_EQ(total, decomposition_.tasks.size());
  for (const auto id : report.completed_ids) EXPECT_NE(report.executed_by[id], 0u);
}

TEST_F(RobustLccTest, CombinedFaultStormStillAccountsForEveryTask) {
  // 5% transient faults + a worker kill at once: the acceptance scenario.
  FaultConfig faults;
  faults.seed = 99;
  faults.transient_rate = 0.05;
  faults.kill_worker = 1;
  faults.kill_at_pop = 3;
  const FaultInjector injector(faults);
  RobustnessPolicy policy;
  policy.max_attempts = 6;

  RunReport report;
  const auto baseline = run_and_merge(1, RobustnessPolicy{}, nullptr);
  const auto merged = run_and_merge(4, policy, &injector, &report);

  expect_exact_accounting(report, decomposition_.tasks.size());
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.dead_workers, (std::vector<std::size_t>{1}));
  EXPECT_EQ(merged, baseline);
}

// ---------------------------------------------------------------------------
// Strict executor: all worker errors aggregated
// ---------------------------------------------------------------------------

TEST(RunThreaded, AggregatesAllWorkerErrors) {
  TinyWorkload workload;
  // A latch forces both workers to hold one failing task each: neither
  // error may be silently dropped.
  auto latch = std::make_shared<std::latch>(2);
  std::vector<Task> tasks(2);
  for (std::uint64_t i = 0; i < 2; ++i) {
    tasks[i].id = i;
    tasks[i].inject = [latch, i](ops5::Engine&) {
      latch->arrive_and_wait();
      throw std::runtime_error("worker error " + std::to_string(i));
    };
  }
  try {
    (void)run(workload.factory(), std::move(tasks), strict_opts(2));
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& failure) {
    EXPECT_EQ(failure.errors.size(), 2u);
    const std::string msg = failure.what();
    EXPECT_NE(msg.find("worker error 0"), std::string::npos);
    EXPECT_NE(msg.find("worker error 1"), std::string::npos);
  }
}

TEST(RunThreaded, SingleErrorRethrownWithOriginalType) {
  TinyWorkload workload;
  std::vector<Task> tasks(1);
  tasks[0].id = 0;
  tasks[0].inject = [](ops5::Engine&) { throw std::domain_error("specific"); };
  EXPECT_THROW((void)run(workload.factory(), std::move(tasks), strict_opts(2)),
               std::domain_error);
}

}  // namespace
}  // namespace psmsys::psm
