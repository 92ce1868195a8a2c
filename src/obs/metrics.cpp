#include "obs/metrics.hpp"

#include <algorithm>
#include <vector>

#include "util/stats.hpp"

namespace psmsys::obs {

void RunMetrics::add_counters(const util::WorkCounters& c) noexcept {
  cycles += c.cycles;
  firings += c.firings;
  rhs_actions += c.rhs_actions;
  wmes_added += c.wmes_added;
  wmes_removed += c.wmes_removed;
  tokens_created += c.tokens_created;
  tokens_deleted += c.tokens_deleted;
  join_probes += c.join_probes;
  alpha_tests += c.alpha_tests;
  alpha_activations += c.alpha_activations;
  match_cost_wu += c.match_cost;
  resolve_cost_wu += c.resolve_cost;
  rhs_cost_wu += c.rhs_cost;
}

json::Value RunMetrics::to_json() const {
  json::Object o;
  const auto put = [&o](const char* key, std::uint64_t v) {
    o.emplace_back(key, json::Value(v));
  };
  put("tasks", tasks);
  put("task_processes", task_processes);
  put("cycles", cycles);
  put("firings", firings);
  put("rhs_actions", rhs_actions);
  put("wmes_added", wmes_added);
  put("wmes_removed", wmes_removed);
  put("tokens_created", tokens_created);
  put("tokens_deleted", tokens_deleted);
  put("join_probes", join_probes);
  put("alpha_tests", alpha_tests);
  put("alpha_activations", alpha_activations);
  put("match_cost_wu", match_cost_wu);
  put("resolve_cost_wu", resolve_cost_wu);
  put("rhs_cost_wu", rhs_cost_wu);
  put("total_cost_wu", total_cost_wu());
  o.emplace_back("match_fraction", json::Value(match_fraction()));
  put("peak_conflict_set", peak_conflict_set);
  put("peak_live_tokens", peak_live_tokens);
  put("retries", retries);
  put("requeues", requeues);
  put("quarantined", quarantined);
  put("abandoned", abandoned);
  put("dead_workers", dead_workers);
  o.emplace_back("wall_ns", json::Value(wall_ns));
  return json::Value(std::move(o));
}

json::Value LatencySummary::to_json() const {
  json::Object o;
  o.emplace_back("count", json::Value(count));
  o.emplace_back("p50_ns", json::Value(p50_ns));
  o.emplace_back("p90_ns", json::Value(p90_ns));
  o.emplace_back("p99_ns", json::Value(p99_ns));
  o.emplace_back("mean_ns", json::Value(mean_ns));
  o.emplace_back("max_ns", json::Value(max_ns));
  return json::Value(std::move(o));
}

LatencySummary summarize_latency_ns(std::span<const std::int64_t> samples_ns) {
  LatencySummary s;
  if (samples_ns.empty()) return s;
  std::vector<double> xs(samples_ns.begin(), samples_ns.end());
  const util::Summary sum = util::summarize(xs);
  s.count = xs.size();
  s.p50_ns = static_cast<std::int64_t>(util::percentile(xs, 50.0));
  s.p90_ns = static_cast<std::int64_t>(util::percentile(xs, 90.0));
  s.p99_ns = static_cast<std::int64_t>(util::percentile(xs, 99.0));
  s.mean_ns = static_cast<std::int64_t>(sum.mean);
  s.max_ns = static_cast<std::int64_t>(sum.max);
  return s;
}

}  // namespace psmsys::obs
