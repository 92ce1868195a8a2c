#include <gtest/gtest.h>

#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "psm/queue.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::psm {
namespace {

/// Strict-mode options: the run_threaded contract via the unified API.
RunOptions strict_opts(std::size_t procs, CollectFn collect = {}) {
  RunOptions options;
  options.task_processes = procs;
  options.strict = true;
  options.collect = std::move(collect);
  return options;
}

// ---------------------------------------------------------------------------
// Counters delta
// ---------------------------------------------------------------------------

TEST(CountersDelta, SubtractsFieldwise) {
  util::WorkCounters before;
  before.match_cost = 100;
  before.firings = 5;
  before.rhs_cost = 40;
  util::WorkCounters after = before;
  after.match_cost = 180;
  after.firings = 9;
  after.rhs_cost = 65;
  after.cycles = 4;
  const auto d = counters_delta(before, after);
  EXPECT_EQ(d.match_cost, 80u);
  EXPECT_EQ(d.firings, 4u);
  EXPECT_EQ(d.rhs_cost, 25u);
  EXPECT_EQ(d.cycles, 4u);
}

TEST(CountersDelta, AccumulateMatchesPlusEquals) {
  util::WorkCounters a;
  a.match_cost = 10;
  a.firings = 2;
  util::WorkCounters b;
  b.match_cost = 7;
  b.firings = 3;
  util::WorkCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.match_cost, 17u);
  EXPECT_EQ(sum.firings, 5u);
}

// ---------------------------------------------------------------------------
// TaskQueue
// ---------------------------------------------------------------------------

std::vector<Task> noop_tasks(std::size_t n) {
  std::vector<Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].inject = [](ops5::Engine&) {};
  }
  return tasks;
}

TEST(TaskQueue, PopsInOrderThenEmpty) {
  const auto tasks = noop_tasks(3);
  TaskQueue q(tasks, 1);
  for (std::uint64_t id = 0; id < 3; ++id) {
    const Task* t = q.pop();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->id, id);
    q.finish(id, false);
  }
  EXPECT_EQ(q.pop(), nullptr);  // nothing fresh, requeued or in flight
}

TEST(TaskQueue, PopHandsOutStablePointersNotCopies) {
  const auto tasks = noop_tasks(2);
  TaskQueue q(tasks, 2);
  const Task* a = q.pop();
  const Task* b = q.pop();
  EXPECT_EQ(a, &tasks[0]);
  EXPECT_EQ(b, &tasks[1]);
  // A requeued task comes back as the same pointer into the caller's list.
  q.finish(a->id, true);
  EXPECT_EQ(q.pop(), a);
}

TEST(TaskQueue, RequeuedTasksDrainBeforeFreshOnes) {
  // A stranded task already waited a full scheduling round, so it must be
  // handed out before the untouched remainder of the fresh list.
  const auto tasks = noop_tasks(4);
  TaskQueue q(tasks, 1);
  EXPECT_EQ(q.pop()->id, 0u);
  q.finish(0, true);  // stranded while fresh tasks 1..3 still wait
  EXPECT_EQ(q.pop()->id, 0u);  // requeued first...
  q.finish(0, false);
  EXPECT_EQ(q.pop()->id, 1u);  // ...then fresh order resumes
  q.requeue_lost({0});
  q.finish(1, true);
  EXPECT_EQ(q.pop()->id, 0u);  // requeue order: lost result, then held task
  q.finish(0, false);
  EXPECT_EQ(q.pop()->id, 1u);
  q.finish(1, false);
  EXPECT_EQ(q.pop()->id, 2u);
  q.finish(2, false);
  EXPECT_EQ(q.pop()->id, 3u);
  q.finish(3, false);
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(TaskQueue, RequeueHandsTasksOutAgain) {
  // With the last task in flight, pop waits instead of reporting an empty
  // queue; the waiting worker takes the task over when the holder dies.
  const auto tasks = noop_tasks(1);
  TaskQueue q(tasks, 2);
  const Task* held = q.pop();
  ASSERT_NE(held, nullptr);
  std::jthread idle([&] {
    const Task* t = q.pop();
    EXPECT_EQ(t, held);
    if (t != nullptr) q.finish(t->id, false);
    EXPECT_EQ(q.pop(), nullptr);
    q.worker_exited();
  });
  q.finish(held->id, true);  // the holder dies holding it
  q.worker_exited();
}

// ---------------------------------------------------------------------------
// TaskRunner on a real decomposition
// ---------------------------------------------------------------------------

class PsmTaskTest : public ::testing::Test {
 protected:
  PsmTaskTest()
      : scene_(spam::generate_scene(spam::dc_config())),
        best_(spam::best_fragments(spam::run_rtf(scene_, 3).fragments)),
        decomposition_(spam::lcc_decomposition(3, scene_, best_)) {}

  spam::Scene scene_;
  std::vector<spam::Fragment> best_;
  spam::Decomposition decomposition_;
};

TEST_F(PsmTaskTest, RunnerMeasuresDeltas) {
  TaskRunner runner(decomposition_.factory);
  // Base-WM loading charges the engine before any task runs; task deltas
  // exclude it (the paper's measurement starts after initialization).
  const auto init_cost = runner.engine().counters().total_cost();
  const auto m0 = runner.run(decomposition_.tasks[0]);
  const auto m1 = runner.run(decomposition_.tasks[1]);
  EXPECT_EQ(m0.task_id, 0u);
  EXPECT_EQ(m1.task_id, 1u);
  EXPECT_GT(m0.cost(), 0u);
  EXPECT_GT(m1.cost(), 0u);
  EXPECT_GT(m0.counters.firings, 0u);
  // Engine counters are cumulative; init + task deltas = engine total.
  EXPECT_EQ(runner.engine().counters().total_cost(),
            init_cost + m0.counters.total_cost() + m1.counters.total_cost());
}

TEST_F(PsmTaskTest, FactoryValidation) {
  TaskProcessFactory broken;
  EXPECT_THROW(TaskRunner{broken}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Threaded executor: the asynchronous parallel system must be *equivalent*
// to the baseline for any number of task processes.
// ---------------------------------------------------------------------------

TEST_F(PsmTaskTest, ThreadedResultsIndependentOfProcessCount) {
  // Merged consistency records must be identical for 1, 2, and 5 processes
  // and equal to the single-runner baseline.
  std::vector<std::vector<spam::ConsistencyRecord>> merged_by_run;
  for (const std::size_t procs : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    std::mutex mu;
    std::vector<spam::ConsistencyRecord> merged;
    const auto collect = [&](std::size_t, ops5::Engine& engine) {
      auto records = spam::extract_consistency(engine);
      const std::lock_guard<std::mutex> lock(mu);
      merged.insert(merged.end(), records.begin(), records.end());
    };
    const auto result = run(decomposition_.factory, decomposition_.tasks,
                            strict_opts(procs, collect));
    EXPECT_EQ(result.measurements().size(), decomposition_.tasks.size());
    std::sort(merged.begin(), merged.end());
    merged_by_run.push_back(std::move(merged));
  }
  EXPECT_EQ(merged_by_run[0], merged_by_run[1]);
  EXPECT_EQ(merged_by_run[0], merged_by_run[2]);
  EXPECT_FALSE(merged_by_run[0].empty());
}

TEST_F(PsmTaskTest, ThreadedExecutesEveryTaskExactlyOnce) {
  const auto result = run(decomposition_.factory, decomposition_.tasks, strict_opts(3));
  ASSERT_EQ(result.measurements().size(), decomposition_.tasks.size());
  for (std::size_t i = 0; i < result.measurements().size(); ++i) {
    EXPECT_EQ(result.measurements()[i].task_id, i);
    EXPECT_GT(result.measurements()[i].cost(), 0u);
  }
  const std::size_t executed = std::accumulate(result.tasks_per_process().begin(),
                                               result.tasks_per_process().end(), std::size_t{0});
  EXPECT_EQ(executed, decomposition_.tasks.size());
  for (const std::size_t p : result.executed_by()) EXPECT_LT(p, 3u);
  // The unified result carries an aggregated metrics snapshot.
  EXPECT_EQ(result.metrics.tasks, decomposition_.tasks.size());
  EXPECT_GT(result.metrics.total_cost_wu(), 0u);
  EXPECT_GE(result.elapsed.count(), 0);
}

TEST_F(PsmTaskTest, ThreadedFiringsConserved) {
  // Total production firings are schedule-independent.
  const auto sequential = spam::run_baseline(decomposition_);
  const auto threaded = run(decomposition_.factory, decomposition_.tasks, strict_opts(4));
  std::uint64_t seq_firings = 0;
  std::uint64_t par_firings = 0;
  for (const auto& m : sequential) seq_firings += m.counters.firings;
  for (const auto& m : threaded.measurements()) par_firings += m.counters.firings;
  EXPECT_EQ(seq_firings, par_firings);
}

TEST_F(PsmTaskTest, TaskProcessesShareOneCompiledNetwork) {
  // Each task process builds its engine on its own thread over the
  // decomposition's one compiled network, and all of them match at once.
  const rete::CompiledNetwork* shared = &decomposition_.factory.make_engine()->network().compiled();
  std::mutex mu;
  std::set<const rete::CompiledNetwork*> seen;
  const auto collect = [&](std::size_t, ops5::Engine& engine) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.insert(&engine.network().compiled());
  };
  const auto result = run(decomposition_.factory, decomposition_.tasks, strict_opts(4, collect));
  EXPECT_EQ(result.measurements().size(), decomposition_.tasks.size());
  EXPECT_EQ(seen, std::set<const rete::CompiledNetwork*>{shared});
}

TEST_F(PsmTaskTest, ThreadedRejectsBadInput) {
  EXPECT_THROW((void)run(decomposition_.factory, decomposition_.tasks, strict_opts(0)),
               std::invalid_argument);
  auto tasks = decomposition_.tasks;
  tasks[0].id = 42;  // non-dense ids
  EXPECT_THROW((void)run(decomposition_.factory, std::move(tasks), strict_opts(2)),
               std::invalid_argument);
}

TEST_F(PsmTaskTest, ThreadedPropagatesWorkerExceptions) {
  std::vector<Task> tasks(2);
  tasks[0].id = 0;
  tasks[0].inject = [](ops5::Engine&) {};
  tasks[1].id = 1;
  tasks[1].inject = [](ops5::Engine&) { throw std::runtime_error("boom"); };
  EXPECT_THROW((void)run(decomposition_.factory, std::move(tasks), strict_opts(2)),
               std::runtime_error);
}

}  // namespace
}  // namespace psmsys::psm
