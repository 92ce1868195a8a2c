#include "psm/sim.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace psmsys::psm {

double TlpSimResult::utilization() const noexcept {
  if (makespan == 0 || busy.empty()) return 0.0;
  double total = 0.0;
  for (auto b : busy) total += static_cast<double>(b);
  return total / (static_cast<double>(makespan) * static_cast<double>(busy.size()));
}

TlpSimResult simulate_tlp(std::span<const util::WorkUnits> task_costs, const TlpConfig& config) {
  if (config.task_processes == 0) throw std::invalid_argument("need >= 1 task process");

  std::vector<util::WorkUnits> order(task_costs.begin(), task_costs.end());
  if (config.policy == SchedulePolicy::LargestFirst) {
    std::stable_sort(order.begin(), order.end(), std::greater<>());
  }

  TlpSimResult result;
  result.busy.assign(config.task_processes, 0);

  // Min-heap of (free-time, process). List scheduling: the process that
  // frees first takes the next task from the queue.
  using Slot = std::pair<util::WorkUnits, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (std::size_t p = 0; p < config.task_processes; ++p) free_at.emplace(0, p);

  for (const util::WorkUnits cost : order) {
    auto [t, p] = free_at.top();
    free_at.pop();
    const util::WorkUnits duration = config.queue_overhead_per_task + cost;
    result.busy[p] += duration;
    result.queue_overhead_total += config.queue_overhead_per_task;
    free_at.emplace(t + duration, p);
  }
  while (!free_at.empty()) {
    result.makespan = std::max(result.makespan, free_at.top().first);
    free_at.pop();
  }
  return result;
}

util::WorkUnits lpt_makespan(std::span<const util::WorkUnits> chunks, std::size_t bins) {
  if (bins == 0) throw std::invalid_argument("need >= 1 bin");
  if (chunks.empty()) return 0;
  std::vector<util::WorkUnits> sorted(chunks.begin(), chunks.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());

  std::priority_queue<util::WorkUnits, std::vector<util::WorkUnits>, std::greater<>> loads;
  for (std::size_t b = 0; b < bins; ++b) loads.push(0);
  for (const auto c : sorted) {
    const util::WorkUnits lightest = loads.top();
    loads.pop();
    loads.push(lightest + c);
  }
  util::WorkUnits makespan = 0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

namespace {

/// ParaOPS5 "exploits parallelism at a fine granularity: subtasks execute
/// only about 100 instructions" — recorded cascade chunks are split into
/// pieces of at most this many work units before bin packing...
constexpr util::WorkUnits kChunkGranularity = 64;
/// ...each piece paying this much queueing overhead, so fine granularity is
/// not free.
constexpr util::WorkUnits kPerChunkOverhead = 1;
/// Shared-bus contention: each additional *active* match process (one that
/// actually receives work this cycle) inflates everyone's memory traffic by
/// this fraction. This is what bends Figure 3's Rubik curve below linear on
/// the Encore.
constexpr double kBusFactor = 0.04;

}  // namespace

util::WorkUnits cycle_cost(const ops5::CycleRecord& cycle, const MatchModel& model) {
  const util::WorkUnits base = cycle.resolve_cost + cycle.rhs_cost;
  if (model.match_processes == 0) {
    return base + cycle.match_cost();
  }
  // Parallel match time for the cycle: ideal distribution X/M, floored by
  // the largest indivisible activation piece. Large cascades split into
  // ParaOPS5-sized subtasks (~"100 instructions"), so the floor is the
  // granularity cap; tiny activations coalesce into shared queue batches.
  util::WorkUnits total = 0;
  util::WorkUnits largest = 0;
  for (const util::WorkUnits c : cycle.match_chunks) {
    total += c;
    largest = std::max(largest, c);
  }
  const util::WorkUnits floor_piece = std::min(largest, kChunkGranularity) + kPerChunkOverhead;
  const util::WorkUnits ideal =
      (total + model.match_processes - 1) / model.match_processes;
  // Bus contention scales with the processes that actually get work.
  const std::size_t active = static_cast<std::size_t>(
      std::min<util::WorkUnits>(model.match_processes, total / kChunkGranularity + 1));
  const auto inflated = static_cast<util::WorkUnits>(
      static_cast<double>(ideal) *
      (1.0 + kBusFactor * static_cast<double>(active - 1)));
  const util::WorkUnits parallel_match =
      std::max(floor_piece, inflated) + model.sync_per_cycle;
  const auto overlap = static_cast<util::WorkUnits>(
      model.act_overlap * static_cast<double>(cycle.rhs_cost));
  const util::WorkUnits exposed = parallel_match > overlap ? parallel_match - overlap : 0;
  return base + exposed;
}

util::WorkUnits task_cost_with_match(const TaskMeasurement& task, const MatchModel& model) {
  if (model.match_processes == 0) return task.cost();
  if (task.cycles.empty() && task.counters.cycles > 0) {
    throw std::invalid_argument(
        "match model needs per-cycle records; run with record_cycles=true");
  }
  util::WorkUnits total = 0;
  for (const auto& cycle : task.cycles) total += cycle_cost(cycle, model);
  return total;
}

std::vector<util::WorkUnits> task_costs(std::span<const TaskMeasurement> tasks,
                                        const MatchModel* model) {
  std::vector<util::WorkUnits> costs;
  costs.reserve(tasks.size());
  for (const auto& t : tasks) {
    costs.push_back(model != nullptr ? task_cost_with_match(t, *model) : t.cost());
  }
  return costs;
}

double match_speedup_limit(std::span<const TaskMeasurement> tasks) {
  util::WorkUnits total = 0;
  util::WorkUnits match = 0;
  for (const auto& t : tasks) {
    total += t.counters.total_cost();
    match += t.counters.match_cost;
  }
  const util::WorkUnits rest = total - match;
  return rest == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(rest);
}

}  // namespace psmsys::psm
