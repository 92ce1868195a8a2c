#pragma once

// The benchmark harness: every reproduced table/figure from the paper is a
// named *case* registered into one `harness` binary. Running a suite prints
// each narrative table once AND emits a schema-versioned BENCH_<suite>.json
// (see src/obs/bench_schema.hpp) with the same tables as machine-readable
// rows, plus speedup curves, counters and the environment fingerprint. Every
// case runs at the paper's size: all three datasets and the full processor
// sweeps.
//
// Everything printed is deterministic except these four host-timed parts,
// which vary from run to run (host-time benchmarking of the system is
// perfbench/, see BENCHMARK.json):
//   - `multiplicative`: Table 9's measured rows (`table9_measured`: the
//     real executor's task speedups, their IQR, work units and tail);
//   - `rete_vs_naive`: the wall column and the wall-time ratio, the paper's
//     §6 speed claim;
//   - `robust_executor`: the useful-work row, which depends on which task
//     process ran which task;
//   - `retract_heavy`: the host ns/op column and the flatness line, whose
//     3x host gate is the only check of host-time O(1) retraction.
//
// Registering a case:
//
//   PSMSYS_BENCH_CASE(lcc_tlp, "lcc", "Figure 6: LCC task-level parallelism") {
//     const auto& measured = ctx.lcc(spam::sf_config(), 3);
//     ctx.speedup_series("SF_L3", {{1, 1.0}, {2, 1.99}, ...});
//     ctx.table("figure6", table);
//   }
//
// The shared measurement cache (`ctx.lcc` / `ctx.rtf`) memoizes the
// expensive dataset runs so cases in one invocation never re-measure.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "psm/sim.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/scene_generator.hpp"
#include "util/table.hpp"
#include "util/work_units.hpp"

namespace psmsys::bench {

// ---------------------------------------------------------------------------
// Measurement helpers (hoisted from the old bench/common.hpp)
// ---------------------------------------------------------------------------

/// A fully measured LCC (or RTF) decomposition for one dataset + level.
struct MeasuredLcc {
  spam::DatasetConfig config;
  std::shared_ptr<spam::Scene> scene;
  std::vector<spam::Fragment> best;
  int level = 3;
  bool has_cycle_records = false;
  std::vector<psm::TaskMeasurement> tasks;

  [[nodiscard]] util::WorkUnits total_cost() const {
    util::WorkUnits t = 0;
    for (const auto& m : tasks) t += m.cost();
    return t;
  }
};

/// Run RTF, decompose LCC at `level`, execute every task on the baseline
/// (single task process) and return the measurements.
[[nodiscard]] MeasuredLcc measure_lcc(const spam::DatasetConfig& config, int level,
                                      bool record_cycles = false);

/// Same for the RTF decomposition.
[[nodiscard]] MeasuredLcc measure_rtf(const spam::DatasetConfig& config,
                                      bool record_cycles = false);

/// TLP speedup at `procs` from measured task costs.
[[nodiscard]] double tlp_speedup(const std::vector<util::WorkUnits>& costs, std::size_t procs,
                                 psm::SchedulePolicy policy = psm::SchedulePolicy::Fifo);

/// One *measured* (host wall-clock) execution of a decomposition on the real
/// executor — the counterpart of the virtual-time model above. Runs strict
/// mode with `task_processes` TLP workers, `repetitions` times, and keeps the
/// fastest run (min wall absorbs scheduler noise).
struct TimedRun {
  std::chrono::nanoseconds wall{};
  /// From the last task process's collect to psm::run's return: the task
  /// processes' teardown and join, which no work unit charges.
  std::chrono::nanoseconds tail{};
  /// The run's counters; metrics.total_cost_wu() is its summed work units.
  obs::RunMetrics metrics;
};
[[nodiscard]] TimedRun timed_run(const spam::Decomposition& decomposition,
                                 std::size_t task_processes, int repetitions);

/// ASCII rendering of a speedup curve (x = processes, y = speedup).
void plot_curve(std::ostream& os, const std::string& title,
                const std::vector<std::pair<std::size_t, double>>& points, double y_max = 0.0);

// ---------------------------------------------------------------------------
// Case registry
// ---------------------------------------------------------------------------

/// One (procs, speedup) point of a speedup curve; serialized per schema v1.
struct SpeedupPoint {
  std::size_t procs = 1;
  double speedup = 1.0;
};

/// Memoizes the expensive per-dataset measurements across cases. A cached
/// entry measured with cycle records satisfies requests without them (the
/// records only add data; costs and counters are identical).
class MeasureCache {
 public:
  const MeasuredLcc& lcc(const spam::DatasetConfig& config, int level, bool record_cycles);
  const MeasuredLcc& rtf(const spam::DatasetConfig& config, bool record_cycles);

 private:
  std::map<std::string, MeasuredLcc> lcc_;
  std::map<std::string, MeasuredLcc> rtf_;
};

/// What a case produced; assembled into the suite's BENCH_<suite>.json.
struct CaseResult {
  std::string id;
  std::string suite;
  std::string title;
  obs::json::Object metrics;            // name -> number
  std::vector<obs::json::Value> speedups;
  std::vector<obs::json::Value> tables;
  std::vector<std::string> notes;
  bool failed = false;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// Handed to each case body: narrative output, the shared measurement cache,
/// and the JSON accumulators.
class CaseContext {
 public:
  CaseContext(CaseResult& result, MeasureCache& cache, std::ostream& out)
      : result_(result), cache_(cache), out_(out) {}

  /// Narrative stream (the old printf output); /dev/null under `--quiet`.
  [[nodiscard]] std::ostream& out() noexcept { return out_; }

  /// Memoized measurements shared by every case in this invocation.
  [[nodiscard]] const MeasuredLcc& lcc(const spam::DatasetConfig& config, int level,
                                       bool record_cycles = false) {
    return cache_.lcc(config, level, record_cycles);
  }
  [[nodiscard]] const MeasuredLcc& rtf(const spam::DatasetConfig& config,
                                       bool record_cycles = false) {
    return cache_.rtf(config, record_cycles);
  }

  /// Record a scalar metric on this case's JSON entry.
  void metric(const std::string& name, double value);
  /// Record every RunMetrics field (flat, `prefix` + field name).
  void metrics(const obs::RunMetrics& m, const std::string& prefix = {});
  /// Record a named speedup curve (schema: speedups[].points[]).
  void speedup_series(const std::string& name, std::vector<SpeedupPoint> points);
  /// Record a table (schema: tables[].columns/rows) in the BENCH document.
  void table(const std::string& name, const util::Table& t);
  /// Attach a free-form note to the JSON entry.
  void note(std::string text);
  /// Mark the case failed (harness exits nonzero); recorded as a note too.
  void fail(std::string reason);

 private:
  CaseResult& result_;
  MeasureCache& cache_;
  std::ostream& out_;
};

using CaseFn = void (*)(CaseContext&);

/// Called by PSMSYS_BENCH_CASE at static-init time; the registry itself is a
/// function-local static, so registration order never races construction.
bool register_case(const char* id, const char* suite, const char* title, CaseFn fn);

/// CLI entry point (see --help). Returns the process exit code.
int run_harness(int argc, char** argv);

}  // namespace psmsys::bench

/// Defines and registers a bench case. Usage:
///   PSMSYS_BENCH_CASE(case_id, "suite", "Human title") { ... use ctx ... }
#define PSMSYS_BENCH_CASE(id, suite, title)                                          \
  static void psmsys_bench_case_##id(::psmsys::bench::CaseContext& ctx);             \
  static const bool psmsys_bench_registered_##id =                                   \
      ::psmsys::bench::register_case(#id, suite, title, &psmsys_bench_case_##id);    \
  static void psmsys_bench_case_##id([[maybe_unused]] ::psmsys::bench::CaseContext& ctx)
