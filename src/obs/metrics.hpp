#pragma once

// RunMetrics: the machine-readable snapshot attached to every executor
// result (psm::RunResult) and embedded in BENCH_<suite>.json case entries.
//
// It aggregates the engine's WorkCounters across all completed tasks and adds
// the executor-level quantities the paper's tables need: wall time, retry /
// requeue accounting, and the peak conflict-set and live-token gauges that
// psm::run samples from the live engines. Per-node Rete activation gauges
// are not aggregated here: they stay on each engine's network, read live
// through rete::Network::node_activations().

#include <cstdint>
#include <span>

#include "obs/json.hpp"
#include "util/counters.hpp"

namespace psmsys::obs {

struct RunMetrics {
  // --- scale of the run ---
  std::uint64_t tasks = 0;            ///< tasks completed
  std::uint64_t task_processes = 0;   ///< worker count used

  // --- engine counters, summed over completed tasks ---
  std::uint64_t cycles = 0;           ///< recognize-act cycles
  std::uint64_t firings = 0;
  std::uint64_t rhs_actions = 0;
  std::uint64_t wmes_added = 0;       ///< WME churn, add side
  std::uint64_t wmes_removed = 0;     ///< WME churn, remove side
  std::uint64_t tokens_created = 0;   ///< rete beta-memory tokens built
  std::uint64_t tokens_deleted = 0;
  std::uint64_t join_probes = 0;      ///< beta-join activations
  std::uint64_t alpha_tests = 0;
  std::uint64_t alpha_activations = 0;

  // --- virtual-time split (work units): match vs act per the paper §3.1 ---
  std::uint64_t match_cost_wu = 0;
  std::uint64_t resolve_cost_wu = 0;
  std::uint64_t rhs_cost_wu = 0;

  // --- gauges ---
  std::uint64_t peak_conflict_set = 0;  ///< max conflict-set size seen
  std::uint64_t peak_live_tokens = 0;   ///< max simultaneously-live rete tokens

  // --- executor accounting ---
  std::uint64_t retries = 0;
  std::uint64_t requeues = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t dead_workers = 0;
  std::int64_t wall_ns = 0;           ///< host wall-clock for the run

  [[nodiscard]] std::uint64_t total_cost_wu() const noexcept {
    return match_cost_wu + resolve_cost_wu + rhs_cost_wu;
  }

  [[nodiscard]] double match_fraction() const noexcept {
    const std::uint64_t t = total_cost_wu();
    return t ? static_cast<double>(match_cost_wu) / static_cast<double>(t)
             : 0.0;
  }

  /// Fold one task's counters into the aggregate.
  void add_counters(const util::WorkCounters& c) noexcept;

  /// Flat JSON object, one number per field (plus derived total_cost_wu and
  /// match_fraction). Key order matches declaration order above.
  [[nodiscard]] json::Value to_json() const;
};

/// Order statistics of a latency sample in nanoseconds — the per-scene
/// distribution a serve rollup reports (p50/p99 scene latency acceptance).
/// All fields are 0 for an empty sample.
struct LatencySummary {
  std::uint64_t count = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p90_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t mean_ns = 0;
  std::int64_t max_ns = 0;

  /// Flat JSON object, key order as declared.
  [[nodiscard]] json::Value to_json() const;
};

/// Summarize a sample of per-item latencies (ns). Copies + sorts internally.
[[nodiscard]] LatencySummary summarize_latency_ns(std::span<const std::int64_t> samples_ns);

}  // namespace psmsys::obs
