// Workload `interpret`: the paper's pipeline, closed loop, one scene at a
// time. Each scene runs RTF, then LCC at Level 2 as independent tasks on 2
// task processes through psm::run (the control process merges their
// consistency records, Section 5.1), then FA and MODEL. The scenes are a
// rotation of equal counts of SF, DC and MOFF variants. The variants are the
// same for every seed, so runs of different seeds measure the same work
// (variants drawn per seed differed by up to 2% in tasks and merged
// records); the seed picks the scene the rotation starts from. Threads: the
// main thread plus psm::run's 2 task processes.

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/scene_generator.hpp"

namespace perfbench {
namespace {

using namespace psmsys;

constexpr int kScenesPerDataset = 4;
constexpr std::uint64_t kVariantSeed = 1;  ///< draws the scene variants
constexpr int kSetups = 5;  ///< each builds 12 scenes and their references
constexpr std::size_t kTaskProcesses = 2;
constexpr int kLccLevel = 2;
constexpr int kRtfGroupSize = 3;

/// One scene of the rotation with its sequential reference results.
struct SceneCase {
  explicit SceneCase(const spam::DatasetConfig& config)
      : dataset(config.name), scene(spam::generate_scene(config)) {}

  std::string dataset;
  spam::Scene scene;  ///< the decomposition's factory refers to it
  std::vector<spam::Fragment> best;
  spam::Decomposition lcc;
  std::vector<spam::ConsistencyRecord> ref_records;
  /// RTF + FA + MODEL. LCC's own total is left out: its in-engine context
  /// formation (lcc-context, lcc-context-strengthen) counts support per task
  /// process, so it fires differently depending on which process ran a
  /// subject's tasks. The merged records, which fix every other LCC firing,
  /// are compared exactly instead.
  std::uint64_t ref_firings = 0;
};

struct Fixture {
  std::vector<std::unique_ptr<SceneCase>> rotation;
};

[[nodiscard]] std::uint64_t phase_firings(const spam::PhaseReport& report) {
  return report.counters.firings;
}

/// Scene, fragments, decomposition, and the reference: every LCC task on one
/// task process in queue order, then FA and MODEL over its contexts.
[[nodiscard]] std::unique_ptr<SceneCase> make_case(const spam::DatasetConfig& config) {
  auto c = std::make_unique<SceneCase>(config);
  const spam::RtfRun rtf = spam::run_rtf(c->scene, kRtfGroupSize);
  c->best = spam::best_fragments(rtf.fragments);
  c->lcc = spam::lcc_decomposition(kLccLevel, c->scene, c->best);

  psm::TaskRunner runner(c->lcc.factory);
  for (const psm::Task& task : c->lcc.tasks) (void)runner.run(task);
  c->ref_records = spam::extract_consistency(runner.engine());
  const auto contexts = spam::contexts_from_consistency(c->ref_records, c->best);
  const spam::FaRun fa = spam::run_fa(c->scene, c->best, contexts);
  const spam::PhaseReport model = spam::run_model(c->scene, fa.areas);
  c->ref_firings = phase_firings(rtf.report) + phase_firings(fa.report) + phase_firings(model);
  return c;
}

[[nodiscard]] std::unique_ptr<Fixture> make_fixture(std::uint64_t seed) {
  auto fixture = std::make_unique<Fixture>();
  for (int i = 0; i < kScenesPerDataset; ++i) {
    for (spam::DatasetConfig config : spam::all_datasets()) {
      config.seed = mix_seed(kVariantSeed, fixture->rotation.size());
      fixture->rotation.push_back(make_case(config));
    }
  }
  const std::size_t first = mix_seed(seed, 0) % fixture->rotation.size();
  std::rotate(fixture->rotation.begin(), fixture->rotation.begin() + first,
              fixture->rotation.end());
  return fixture;
}

/// Per-operation sums of the layer metrics (divided by ops at the end).
struct LayerSums {
  double rtf_ms = 0, merge_ms = 0, fa_ms = 0, model_ms = 0;
  double psm_init_ms = 0, psm_run_ms = 0, psm_tail_ms = 0, psm_busy_share = 0;
  double tasks = 0, firings = 0, match_wu = 0, join_probes = 0, tokens_created = 0;
};

struct SceneOutcome {
  bool ok = false;
  std::uint64_t tasks = 0;
  std::uint64_t merged = 0;
  std::uint64_t firings = 0;
};

[[nodiscard]] SceneOutcome interpret_scene(const SceneCase& c, Result& result, LayerSums& sums,
                                           std::vector<double>& latencies_ms) {
  SceneOutcome out;
  const auto t0 = Clock::now();
  const spam::RtfRun rtf = spam::run_rtf(c.scene, kRtfGroupSize);
  const auto t1 = Clock::now();

  std::mutex mu;
  std::vector<spam::ConsistencyRecord> merged;
  std::vector<Clock::time_point> collected;
  double extract_ms = 0.0;
  psm::RunOptions options;
  options.task_processes = kTaskProcesses;
  options.strict = true;
  options.collect = [&](std::size_t, ops5::Engine& engine) {
    const auto begin = Clock::now();
    auto records = spam::extract_consistency(engine);
    const auto end = Clock::now();
    const std::lock_guard<std::mutex> lock(mu);
    collected.push_back(begin);
    extract_ms += ms_between(begin, end);
    merged.insert(merged.end(), records.begin(), records.end());
  };
  const auto t2 = Clock::now();
  const psm::RunResult lcc = psm::run(c.lcc.factory, c.lcc.tasks, options);
  const auto t3 = Clock::now();
  std::sort(merged.begin(), merged.end());
  const auto contexts = spam::contexts_from_consistency(merged, c.best);
  const auto t4 = Clock::now();
  const spam::FaRun fa = spam::run_fa(c.scene, c.best, contexts);
  const auto t5 = Clock::now();
  const spam::PhaseReport model = spam::run_model(c.scene, fa.areas);
  const auto t6 = Clock::now();

  out.tasks = lcc.metrics.tasks;
  out.merged = merged.size();
  out.firings = phase_firings(rtf.report) + phase_firings(fa.report) + phase_firings(model);

  const auto best = spam::best_fragments(rtf.fragments);
  const bool same_fragments =
      best.size() == c.best.size() &&
      std::equal(best.begin(), best.end(), c.best.begin(),
                 [](const spam::Fragment& a, const spam::Fragment& b) { return a.id == b.id; });
  if (!lcc.complete() || collected.size() != kTaskProcesses) {
    result.fail(c.dataset + ": LCC run did not complete on every task process");
    return out;
  }
  if (!same_fragments) {
    result.fail(c.dataset + ": RTF best fragments differ from set-up");
    return out;
  }
  if (merged != c.ref_records) {
    result.fail(c.dataset + ": merged consistency records differ from the sequential reference");
    return out;
  }
  if (out.firings != c.ref_firings) {
    result.fail(c.dataset + ": " + std::to_string(out.firings) + " firings, reference " +
                std::to_string(c.ref_firings));
    return out;
  }
  out.ok = true;
  latencies_ms.push_back(ms_between(t0, t6));

  const double elapsed_ms = std::chrono::duration<double, std::milli>(lcc.elapsed).count();
  const auto [first, last] = std::minmax_element(collected.begin(), collected.end());
  double busy_ms = 0.0;
  for (const auto& t : collected) busy_ms += ms_between(t2, t);
  const double span_ms = ms_between(t2, *last);
  sums.rtf_ms += ms_between(t0, t1);
  sums.psm_init_ms += ms_between(t2, t3) - elapsed_ms;
  sums.psm_run_ms += elapsed_ms;
  sums.psm_tail_ms += ms_between(*first, *last);
  sums.psm_busy_share +=
      span_ms > 0.0 ? busy_ms / (static_cast<double>(kTaskProcesses) * span_ms) : 1.0;
  sums.merge_ms += extract_ms + ms_between(t3, t4);
  sums.fa_ms += ms_between(t4, t5);
  sums.model_ms += ms_between(t5, t6);
  sums.tasks += static_cast<double>(out.tasks);
  sums.firings += static_cast<double>(out.firings + lcc.metrics.firings);
  sums.match_wu += static_cast<double>(rtf.report.counters.match_cost + lcc.metrics.match_cost_wu +
                                       fa.report.counters.match_cost + model.counters.match_cost);
  sums.join_probes +=
      static_cast<double>(rtf.report.counters.join_probes + lcc.metrics.join_probes +
                          fa.report.counters.join_probes + model.counters.join_probes);
  sums.tokens_created +=
      static_cast<double>(rtf.report.counters.tokens_created + lcc.metrics.tokens_created +
                          fa.report.counters.tokens_created + model.counters.tokens_created);
  return out;
}

}  // namespace

Result run_interpret(const Args& args) {
  Result result;
  LayerSums sums;
  std::unique_ptr<Fixture> fixture;

  // One whole rotation: a measured window, so every per-rotation count
  // repeats, or an unmeasured warm-up on a fresh fixture (still checked).
  const auto rotation = [&](bool measured) {
    LayerSums warm_up_sums;
    std::uint64_t tasks = 0, merged = 0, firings = 0, ok = 0;
    std::vector<double> latencies_ms;
    const double slowdown_before = measured ? host_slowdown() : 1.0;
    const Mark window = mark_now();
    for (const auto& c : fixture->rotation) {
      ++result.attempted;
      try {
        const SceneOutcome out =
            interpret_scene(*c, result, measured ? sums : warm_up_sums, latencies_ms);
        if (out.ok) ++ok;
        tasks += out.tasks;
        merged += out.merged;
        firings += out.firings;
      } catch (const std::exception& e) {
        result.fail(c->dataset + ": " + e.what());
      }
    }
    if (!measured) return;
    result.windows.push_back(window_since(window, ok, std::move(latencies_ms)));
    result.windows.back().slowdown = (slowdown_before + host_slowdown()) / 2.0;
    result.completed += ok;
    result.count("psm.tasks", tasks);
    result.count("spam.merged_records", merged);
    result.count("ops5.firings_rtf_fa_model", firings);
  };
  const auto make = [&] { return make_fixture(args.seed); };

  rebuild(fixture, result, make);
  rotation(false);
  Measure measure(args.seconds, setup_repeats(args, kSetups));
  do {
    if (measure.setup_due()) {
      const auto paused = Clock::now();
      rebuild(fixture, result, make);
      rotation(false);
      measure.paused_since(paused);
    }
    rotation(true);
  } while (!measure.done());

  const double ops = std::max<double>(1.0, static_cast<double>(result.completed));
  result.layers = {
      {"spam.rtf_ms", sums.rtf_ms / ops},
      {"spam.fa_ms", sums.fa_ms / ops},
      {"spam.model_ms", sums.model_ms / ops},
      {"spam.merge_ms", sums.merge_ms / ops},
      {"psm.init_ms", sums.psm_init_ms / ops},
      {"psm.run_ms", sums.psm_run_ms / ops},
      {"psm.tail_ms", sums.psm_tail_ms / ops},
      {"psm.busy_share", sums.psm_busy_share / ops},
      {"psm.tasks", sums.tasks / ops},
      {"ops5.firings", sums.firings / ops},
      {"rete.match_wu", sums.match_wu / ops},
      {"rete.join_probes", sums.join_probes / ops},
      {"rete.tokens_created", sums.tokens_created / ops},
  };
  return result;
}

}  // namespace perfbench
