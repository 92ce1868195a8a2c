#include <gtest/gtest.h>

#include "psm/sim.hpp"
#include "svm/svm.hpp"
#include "util/rng.hpp"

namespace psmsys::svm {
namespace {

using psm::TaskMeasurement;
using util::WorkUnits;

[[nodiscard]] std::vector<TaskMeasurement> synthetic_tasks(std::size_t n, WorkUnits cost,
                                                           std::uint64_t churn) {
  std::vector<TaskMeasurement> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].task_id = i;
    tasks[i].counters.rhs_cost = cost;
    tasks[i].counters.wmes_added = churn;
  }
  return tasks;
}

TEST(TaskPages, ScalesWithChurn) {
  SvmConfig c;
  c.items_per_page = 10;
  TaskMeasurement quiet;
  TaskMeasurement busy;
  busy.counters.wmes_added = 95;
  busy.counters.wmes_removed = 5;
  EXPECT_EQ(task_pages(quiet, c), 1u);        // just the queue page
  EXPECT_EQ(task_pages(busy, c), 11u);        // 100 churn / 10 + queue page
}

TEST(SimulateSvm, LocalOnlyMatchesTlp) {
  // All processes on node 0: no network faults; equals the TLP simulator.
  const auto tasks = synthetic_tasks(40, 1000, 60);
  SvmConfig c;
  const auto svm = simulate_svm(tasks, 8, c);
  EXPECT_EQ(svm.remote_faults, 0u);

  const auto costs = psm::task_costs(tasks);
  psm::TlpConfig tc;
  tc.task_processes = 8;
  tc.queue_overhead_per_task = c.queue_overhead_per_task;
  EXPECT_EQ(svm.makespan, psm::simulate_tlp(costs, tc).makespan);
}

TEST(SimulateSvm, CrossingNodesCostsFaults) {
  const auto tasks = synthetic_tasks(200, 1000, 60);
  SvmConfig c;
  const auto at13 = simulate_svm(tasks, 13, c);
  const auto at14 = simulate_svm(tasks, 14, c);
  EXPECT_EQ(at13.remote_faults, 0u);
  EXPECT_GT(at14.remote_faults, 0u);
  EXPECT_GT(at14.remote_fault_cost, 0u);
}

TEST(SimulateSvm, TranslationalEffect) {
  // Crossing to the second Encore still speeds things up, but the remote
  // processors are worth less than local ones (Figure 9's translation).
  const auto tasks = synthetic_tasks(400, 2000, 80);
  SvmConfig c;
  const auto base = simulate_svm(tasks, 1, c).makespan;
  const auto at13 = simulate_svm(tasks, 13, c).makespan;
  const auto at20 = simulate_svm(tasks, 20, c).makespan;
  const double s13 = psm::speedup(base, at13);
  const double s20 = psm::speedup(base, at20);
  EXPECT_GT(s20, s13);                       // more processors still help
  EXPECT_LT(s20, s13 * 20.0 / 13.0 * 0.995); // but less than proportionally
}

TEST(SimulateSvm, ProcessorCountCapped) {
  const auto tasks = synthetic_tasks(50, 500, 20);
  SvmConfig c;
  c.node0_procs = 3;
  c.node1_procs = 2;
  const auto r = simulate_svm(tasks, 99, c);
  EXPECT_EQ(r.busy.size(), 5u);
}

TEST(SimulateSvm, DiffShippingBeatsFullPages) {
  // Coarse tasks: the second Encore is useful under both protocols, so the
  // cheaper 64-byte diffs strictly win. (With fine tasks, list scheduling
  // just starves the remote node instead.)
  const auto tasks = synthetic_tasks(100, 50000, 100);
  SvmConfig diff;
  SvmConfig full = diff;
  full.diff_shipping = false;
  const auto with_diff = simulate_svm(tasks, 20, diff);
  const auto with_full = simulate_svm(tasks, 20, full);
  EXPECT_LT(with_diff.makespan, with_full.makespan);
  // Per-fault cost is what the netmemory-server optimization reduces.
  EXPECT_LT(with_diff.remote_fault_cost / std::max<std::uint64_t>(with_diff.remote_faults, 1),
            with_full.remote_fault_cost / std::max<std::uint64_t>(with_full.remote_faults, 1));
}

TEST(SimulateSvm, FalseSharingDegradesSeverely) {
  // "the overhead incurred from constantly page faulting across the network
  // due to false contention, brought our system to a halt".
  const auto tasks = synthetic_tasks(300, 1500, 100);
  SvmConfig clean;
  SvmConfig dirty = clean;
  dirty.false_sharing_factor = 50.0;
  const auto base = simulate_svm(tasks, 1, clean).makespan;
  const double s_clean = psm::speedup(base, simulate_svm(tasks, 22, clean).makespan);
  const double s_dirty = psm::speedup(base, simulate_svm(tasks, 22, dirty).makespan);
  EXPECT_LT(s_dirty, s_clean / 1.5);
}

TEST(SimulateSvm, RejectsZeroProcessors) {
  const auto tasks = synthetic_tasks(3, 100, 5);
  EXPECT_THROW(simulate_svm(tasks, 0, SvmConfig{}), std::invalid_argument);
}

TEST(SimulateSvm, FaultAccountingConsistent) {
  const auto tasks = synthetic_tasks(100, 800, 64);
  SvmConfig c;
  const auto r = simulate_svm(tasks, 20, c);
  EXPECT_EQ(r.remote_fault_cost, r.remote_faults * kDiffFaultCost);
}

// ---------------------------------------------------------------------------
// Degraded modes: fault storms and node failure
// ---------------------------------------------------------------------------

TEST(SimulateSvm, DefaultsUnchangedByNewKnobs) {
  // storm_factor=1 / storm_until=0 / node1_fails_at=0 must reproduce the
  // original simulation exactly.
  const auto tasks = synthetic_tasks(200, 1200, 70);
  SvmConfig plain;
  SvmConfig wired = plain;
  wired.storm_factor = 1.0;
  wired.storm_until = 0;
  wired.node1_fails_at = 0;
  const auto a = simulate_svm(tasks, 20, plain);
  const auto b = simulate_svm(tasks, 20, wired);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.remote_faults, b.remote_faults);
  EXPECT_EQ(b.storm_extra_faults, 0u);
  EXPECT_EQ(b.failed_procs, 0u);
  EXPECT_EQ(b.reexecuted_tasks, 0u);
  EXPECT_EQ(b.wasted_work, 0u);
}

TEST(SimulateSvm, InitFaultStormDegradesEarlyRemoteTasks) {
  const auto tasks = synthetic_tasks(300, 1500, 100);
  SvmConfig calm;
  SvmConfig stormy = calm;
  stormy.storm_factor = 8.0;
  stormy.storm_until = 20000;
  const auto a = simulate_svm(tasks, 20, calm);
  const auto b = simulate_svm(tasks, 20, stormy);
  EXPECT_GT(b.makespan, a.makespan);
  EXPECT_GT(b.storm_extra_faults, 0u);
  // A longer storm hurts at least as much.
  SvmConfig longer = stormy;
  longer.storm_until = 60000;
  EXPECT_GE(simulate_svm(tasks, 20, longer).makespan, b.makespan);
}

TEST(SimulateSvm, NodeFailureReexecutesLostTasksOnSurvivors) {
  const auto tasks = synthetic_tasks(200, 2000, 80);
  SvmConfig healthy;
  SvmConfig failing = healthy;
  failing.node1_fails_at = 6000;  // well before the healthy makespan
  const auto a = simulate_svm(tasks, 20, healthy);
  const auto b = simulate_svm(tasks, 20, failing);
  // The run still finishes — graceful degradation, not collapse...
  EXPECT_GT(b.makespan, a.makespan);
  EXPECT_EQ(b.failed_procs, 20u - healthy.node0_procs);
  // ...and the tasks in flight on the dead node were re-executed, their
  // partial work wasted.
  EXPECT_GT(b.reexecuted_tasks, 0u);
  EXPECT_GT(b.wasted_work, 0u);
  // Work conservation: busy time = total task work + faults + waste.
  // Every task was completed exactly once on a surviving processor.
  util::WorkUnits total_busy = 0;
  for (const auto busy : b.busy) total_busy += busy;
  util::WorkUnits task_work = 0;
  for (const auto& t : tasks) task_work += healthy.queue_overhead_per_task + t.cost();
  EXPECT_EQ(total_busy, task_work + b.remote_fault_cost + b.wasted_work);
}

TEST(SimulateSvm, EarlyNodeFailureDegradesToLocalOnly) {
  // Node 1 dies at t=1: each remote processor grabs exactly one task at
  // t=0, wastes one unit of partial work, and the survivors on node 0
  // re-execute everything — for uniform tasks the makespan equals running
  // on node 0 alone.
  const auto tasks = synthetic_tasks(100, 1000, 50);
  SvmConfig failing;
  failing.node1_fails_at = 1;
  SvmConfig local;
  const auto dead = simulate_svm(tasks, 20, failing);
  const auto alone = simulate_svm(tasks, local.node0_procs, local);
  const std::size_t remote_procs = 20 - failing.node0_procs;
  EXPECT_EQ(dead.makespan, alone.makespan);
  EXPECT_EQ(dead.remote_faults, 0u);  // no remote task ever completed
  EXPECT_EQ(dead.reexecuted_tasks, remote_procs);
  EXPECT_EQ(dead.wasted_work, remote_procs * WorkUnits{1});
  EXPECT_EQ(dead.failed_procs, remote_procs);
}

}  // namespace
}  // namespace psmsys::svm
