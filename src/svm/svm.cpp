#include "svm/svm.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <stdexcept>

namespace psmsys::svm {

std::uint64_t task_pages(const psm::TaskMeasurement& task, const SvmConfig& config) {
  const std::uint64_t wme_churn = task.counters.wmes_added + task.counters.wmes_removed;
  const std::uint64_t data_pages =
      (wme_churn + config.items_per_page - 1) / std::max<std::size_t>(config.items_per_page, 1);
  return data_pages + 1;  // +1: the task-queue page
}

SvmSimResult simulate_svm(std::span<const psm::TaskMeasurement> tasks, std::size_t total_procs,
                          const SvmConfig& config) {
  if (total_procs == 0) throw std::invalid_argument("need >= 1 processor");
  total_procs = std::min(total_procs, config.node0_procs + config.node1_procs);

  const util::WorkUnits fault_cost =
      config.diff_shipping ? kDiffFaultCost : kFullPageFaultCost;
  const util::WorkUnits fail_time = config.node1_fails_at;

  SvmSimResult result;
  result.busy.assign(total_procs, 0);

  using Slot = std::pair<util::WorkUnits, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (std::size_t p = 0; p < total_procs; ++p) free_at.emplace(0, p);

  // FIFO work list; a task lost with the failing node goes back to the head
  // for re-execution on a survivor.
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < tasks.size(); ++i) pending.push_back(i);

  while (!pending.empty() && !free_at.empty()) {
    auto [t, p] = free_at.top();
    free_at.pop();
    const bool remote = p >= config.node0_procs;
    if (fail_time != 0 && remote && t >= fail_time) {
      // Node 1 is gone: this processor takes no further tasks.
      continue;
    }
    const std::size_t idx = pending.front();
    pending.pop_front();
    const auto& task = tasks[idx];

    util::WorkUnits duration = config.queue_overhead_per_task + task.cost();
    std::uint64_t faults = 0;
    std::uint64_t base_faults = 0;
    if (remote) {
      // Remote node: every working-set page faults across the network, with
      // false contention multiplying the count — further multiplied while
      // the initialization fault storm lasts.
      double factor = config.false_sharing_factor;
      base_faults =
          static_cast<std::uint64_t>(static_cast<double>(task_pages(task, config)) * factor);
      if (config.storm_until != 0 && t < config.storm_until) {
        factor *= std::max(config.storm_factor, 1.0);
      }
      faults = static_cast<std::uint64_t>(static_cast<double>(task_pages(task, config)) * factor);
      duration += faults * fault_cost;
    }

    if (fail_time != 0 && remote && t + duration > fail_time) {
      // The node dies mid-task: partial work is wasted, the task re-executes
      // on a survivor, and the processor never comes back.
      const util::WorkUnits partial = fail_time - t;
      result.busy[p] += partial;
      result.wasted_work += partial;
      ++result.reexecuted_tasks;
      result.makespan = std::max(result.makespan, fail_time);
      pending.push_front(idx);
      continue;
    }

    if (remote) {
      result.remote_faults += faults;
      result.remote_fault_cost += faults * fault_cost;
      result.storm_extra_faults += faults - base_faults;
    }
    result.busy[p] += duration;
    free_at.emplace(t + duration, p);
  }
  while (!free_at.empty()) {
    result.makespan = std::max(result.makespan, free_at.top().first);
    free_at.pop();
  }
  if (fail_time != 0 && total_procs > config.node0_procs) {
    result.failed_procs = total_procs - config.node0_procs;
  }
  return result;
}

}  // namespace psmsys::svm
