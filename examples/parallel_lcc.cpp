// SPAM/PSM in action: decompose the LCC phase into Level 3 tasks, run them
// on real threads (asynchronous task processes over a shared queue, results
// collected by the control process), verify the result is identical to the
// sequential baseline, and project the Encore-scale speedup curve with the
// virtual-time model.

#include <iostream>
#include <mutex>

#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"
#include "util/table.hpp"

int main() {
  using namespace psmsys;

  const auto config = spam::dc_config();
  const spam::Scene scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);
  std::cout << "dataset " << config.name << ": " << best.size() << " fragment hypotheses\n";

  // --- explicit task decomposition (Level 3: one task per object) ---
  const spam::Decomposition decomposition = spam::lcc_decomposition(3, scene, best);
  std::cout << "Level 3 decomposition: " << decomposition.tasks.size()
            << " independent tasks, e.g. \"" << decomposition.tasks[0].label << "\"\n\n";

  // --- sequential baseline (1 task process) ---
  psm::TaskRunner baseline_runner(decomposition.factory);
  std::vector<psm::TaskMeasurement> baseline;
  for (const auto& task : decomposition.tasks) baseline.push_back(baseline_runner.run(task));
  const auto baseline_records = spam::extract_consistency(baseline_runner.engine());
  std::cout << "baseline: " << baseline_records.size() << " constraint applications, "
            << spam::count_positive_consistency(baseline_runner.engine()) << " consistent\n";

  // --- real threads: 4 asynchronous task processes, WME distribution ---
  std::mutex mu;
  std::vector<spam::ConsistencyRecord> merged;
  const auto collect = [&](std::size_t process, ops5::Engine& engine) {
    auto records = spam::extract_consistency(engine);
    const std::lock_guard<std::mutex> lock(mu);
    std::cout << "  task process " << process << " returned " << records.size()
              << " results\n";
    merged.insert(merged.end(), records.begin(), records.end());
  };
  psm::RunOptions options;
  options.task_processes = 4;
  options.strict = true;  // any worker error should abort this example
  options.collect = collect;
  const auto threaded = psm::run(decomposition.factory, decomposition.tasks, options);
  std::sort(merged.begin(), merged.end());

  std::cout << "4 task processes, " << threaded.measurements().size() << " tasks in "
            << std::chrono::duration<double, std::milli>(threaded.elapsed).count()
            << " ms host time; results "
            << (merged == baseline_records ? "IDENTICAL to baseline" : "DIVERGED (bug!)")
            << "\n";
  const auto contexts = spam::contexts_from_consistency(merged, best);
  std::cout << "control process formed " << contexts.size() << " contexts from the merged "
            << "results\n\n";

  // --- Encore-scale speedup projection from the measured task costs ---
  const auto costs = psm::task_costs(baseline);
  psm::TlpConfig sim;
  const auto base_makespan = psm::simulate_tlp(costs, sim).makespan;
  util::Table curve({"task processes", "speedup", "utilization"});
  for (const std::size_t p : {1u, 2u, 4u, 8u, 14u}) {
    sim.task_processes = p;
    const auto r = psm::simulate_tlp(costs, sim);
    curve.add_row({util::Table::fmt(p), util::Table::fmt(psm::speedup(base_makespan, r.makespan), 2),
                   util::Table::fmt(r.utilization(), 2)});
  }
  curve.print(std::cout, "projected task-level speedups (virtual-time model)");
  return merged == baseline_records ? 0 : 1;
}
