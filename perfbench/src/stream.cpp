// Workload `stream`: pairs of long-lived streams on a 2-worker server, driven
// by one generator thread that keeps one tick outstanding per stream (closed
// loop per stream; the schedule's pacing timestamps are not slept on). Each
// stream delivers the SF LCC Level-2 task list once, dealt over an SF
// stream_config_for schedule with its retract_fraction kept, so the Rete
// remove path (a retraction removes a task's lcc-task WME) runs beside the
// add path against a resident working memory that grows tick by tick; the
// whole journal rolls back at close. A cycle serves kPairsPerCycle pairs on
// distinct schedules, since one schedule's burst pattern alone moved the
// tick percentiles by more than the bounds. Threads: generator, 2 workers.

#include <algorithm>
#include <array>
#include <future>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "obs/bench_schema.hpp"
#include "serve/server.hpp"
#include "spam/constraints.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/scene_generator.hpp"
#include "spam/stream_schedule.hpp"

namespace perfbench {
namespace {

using namespace psmsys;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kStreams = 2;  ///< open at once: one per worker
constexpr std::size_t kPairsPerCycle = 4;
constexpr int kSetups = 10;  ///< a set-up takes ~10 ms, so many make a steady median

using PairSchedules = std::array<std::vector<spam::StreamTickSpec>, kStreams>;

struct Fixture {
  explicit Fixture(const spam::DatasetConfig& config) : scene(spam::generate_scene(config)) {}

  spam::Scene scene;  ///< base_init and the task closures refer to it
  spam::Decomposition lcc;
  spam::PhaseProgram phase;
  /// (subject, constraint) of each Level-2 task, in task order.
  std::vector<std::pair<double, double>> items;
  std::array<PairSchedules, kPairsPerCycle> cycle;
  std::uint64_t cycle_retractions = 0;
  ops5::ClassIndex task_class = 0;
  ops5::SlotIndex subject_slot = 0;
  ops5::SlotIndex constraint_slot = 0;
  std::shared_ptr<const serve::SharedRuleBase> rulebase;
  std::unique_ptr<serve::Server> server;  ///< last: drained before the rest dies
};

[[nodiscard]] ops5::SlotIndex task_slot(const ops5::Program& program, ops5::ClassIndex cls,
                                        const char* attribute) {
  const auto sym = program.symbols().find(attribute);
  if (!sym) throw std::logic_error(std::string("lcc-task has no ") + attribute);
  return program.wme_class(cls).slot_of(*sym);
}

/// The scene is the SF dataset itself (a scene variant per seed moved tick
/// cost by more than the bounds); the seed draws the delta schedules.
[[nodiscard]] std::unique_ptr<Fixture> make_fixture(std::uint64_t seed) {
  const spam::DatasetConfig config = spam::sf_config();
  auto f = std::make_unique<Fixture>(config);
  auto best = spam::best_fragments(spam::run_rtf(f->scene, 3).fragments);
  f->lcc = spam::lcc_decomposition(2, f->scene, best);
  f->phase = spam::build_lcc_program();

  // The Level-2 task order of lcc_decomposition: fragments by id, then each
  // fragment's catalog constraints.
  std::sort(best.begin(), best.end(),
            [](const spam::Fragment& a, const spam::Fragment& b) { return a.id < b.id; });
  for (const spam::Fragment& fragment : best) {
    for (const spam::Constraint* c : spam::constraints_for(fragment.cls)) {
      f->items.emplace_back(static_cast<double>(fragment.id), static_cast<double>(c->id));
    }
  }
  if (f->items.size() != f->lcc.tasks.size()) {
    throw std::logic_error("stream items do not line up with the Level-2 task list");
  }

  const ops5::Program& program = *f->phase.program;
  const auto task_sym = program.symbols().find("lcc-task");
  const auto task_class = task_sym ? program.class_index(*task_sym) : std::nullopt;
  if (!task_class) throw std::logic_error("LCC program has no lcc-task class");
  f->task_class = *task_class;
  f->subject_slot = task_slot(program, f->task_class, "subject");
  f->constraint_slot = task_slot(program, f->task_class, "constraint");

  for (std::size_t p = 0; p < kPairsPerCycle; ++p) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      spam::StreamScheduleConfig stream = spam::stream_config_for(config, f->items.size());
      stream.seed = mix_seed(seed, p * kStreams + s + 1);
      f->cycle[p][s] = spam::make_stream_schedule(stream);
      for (const auto& spec : f->cycle[p][s]) f->cycle_retractions += spec.retractions.size();
    }
  }

  f->rulebase = serve::SharedRuleBase::compile(f->phase.program, f->phase.externals.get());
  serve::ServerOptions options;
  options.workers = kWorkers;
  options.base_init = [scene = &f->scene, init = f->lcc.factory.base_init](ops5::Engine& e) {
    e.set_user_data(scene);  // the phase externals reach the polygons through this
    init(e);
  };
  f->server = std::make_unique<serve::Server>(f->rulebase, options);
  return f;
}

void retract_task(ops5::Engine& engine, const Fixture& f, std::size_t item) {
  const auto [subject, constraint] = f.items[item];
  for (const ops5::Wme* wme : engine.wmes_of_class(f.task_class)) {
    if (wme->slot(f.subject_slot).number() == subject &&
        wme->slot(f.constraint_slot).number() == constraint) {
      engine.remove_wme(*wme);
      return;
    }
  }
  throw std::logic_error("retraction of a task that never arrived");
}

[[nodiscard]] serve::SceneJob tick_job(const Fixture& f, const spam::StreamTickSpec& spec) {
  serve::SceneJob job;
  job.label = "tick";
  job.inject = [&f, &spec](ops5::Engine& engine) {
    for (const std::size_t item : spec.arrivals) f.lcc.tasks[item].inject(engine);
    for (const std::size_t item : spec.retractions) retract_task(engine, f, item);
  };
  return job;
}

struct LayerSums {
  std::vector<double> queued_ms, service_ms, close_ms;
  double resident_wm = 0, live_tokens = 0, retractions = 0, streams = 0;
  double firings = 0, match_wu = 0, join_probes = 0, tokens_created = 0;
};

/// One pair of streams from open to close; returns the pair's firings and
/// appends the latencies of its completed ticks.
std::uint64_t run_pair(Fixture& f, const PairSchedules& schedules, Result& result,
                       LayerSums& sums, std::vector<double>& latencies_ms) {
  std::array<serve::StreamHandle, kStreams> handles;
  std::array<std::future<serve::TickReport>, kStreams> pending;
  std::array<serve::TickReport, kStreams> last{};
  std::array<std::uint64_t, kStreams> submitted{};
  std::uint64_t firings = 0;

  const auto settle = [&](std::size_t s) {
    if (!pending[s].valid()) return;
    const serve::TickReport r = pending[s].get();
    if (r.status != serve::SceneStatus::Completed) {
      result.fail(std::string("tick ended ") + serve::to_string(r.status) + ": " + r.error);
      return;
    }
    latencies_ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
    sums.queued_ms.push_back(static_cast<double>(r.queued_ns) / 1e6);
    sums.service_ms.push_back(static_cast<double>(r.service_ns) / 1e6);
    firings += r.counters.firings;
    sums.match_wu += static_cast<double>(r.counters.match_cost);
    sums.join_probes += static_cast<double>(r.counters.join_probes);
    sums.tokens_created += static_cast<double>(r.counters.tokens_created);
    last[s] = r;
  };

  for (std::size_t s = 0; s < kStreams; ++s) {
    handles[s] = f.server->open_stream("stream-" + std::to_string(s));
    if (!handles[s].admitted()) {
      result.fail(std::string("stream shed at open: ") + serve::to_string(handles[s].rejected()));
      return 0;
    }
  }
  std::size_t ticks = 0;
  for (const auto& schedule : schedules) ticks = std::max(ticks, schedule.size());
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      settle(s);
      if (t >= schedules[s].size()) continue;
      ++result.attempted;
      serve::SubmitTickResult r = handles[s].tick(tick_job(f, schedules[s][t]));
      if (!r.admitted()) {
        result.fail(std::string("tick shed: ") + serve::to_string(r.rejected));
        continue;
      }
      ++submitted[s];
      pending[s] = std::move(r.report);
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) settle(s);

  std::array<std::future<serve::StreamReport>, kStreams> closing;
  std::array<Clock::time_point, kStreams> closed_at;
  for (std::size_t s = 0; s < kStreams; ++s) {
    closed_at[s] = Clock::now();
    closing[s] = handles[s].close();
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    const serve::StreamReport report = closing[s].get();
    sums.close_ms.push_back(ms_between(closed_at[s], Clock::now()));
    if (report.status != serve::SceneStatus::Completed ||
        report.ticks_completed != submitted[s]) {
      result.fail("stream " + std::to_string(s) + " ended " + serve::to_string(report.status) +
                  " after " + std::to_string(report.ticks_completed) + " of " +
                  std::to_string(submitted[s]) + " ticks");
    }
    std::size_t retractions = 0;
    for (const auto& spec : schedules[s]) retractions += spec.retractions.size();
    sums.retractions += static_cast<double>(retractions);
    sums.resident_wm += static_cast<double>(last[s].wm_size);
    sums.live_tokens += static_cast<double>(last[s].live_tokens);
    sums.streams += 1.0;
  }
  sums.firings += static_cast<double>(firings);
  return firings;
}

/// Drain a fixture's server and check its rollup against the ticks the
/// generator saw complete on it.
void check_drained(Fixture& f, std::uint64_t completed, Result& result) {
  const serve::ServerStats stats = f.server->drain();
  for (const auto& v : obs::validate_serve_rollup(stats.to_json())) {
    result.fail("serve rollup: " + v);
  }
  if (stats.streams.ticks_completed != completed) {
    result.fail("server completed " + std::to_string(stats.streams.ticks_completed) +
                " ticks, the generator saw " + std::to_string(completed));
  }
}

}  // namespace

Result run_stream(const Args& args) {
  Result result;
  const auto make = [&] { return make_fixture(args.seed); };
  std::unique_ptr<Fixture> fixture;
  rebuild(fixture, result, make);
  std::uint64_t completed_here = 0;  ///< ticks completed on this fixture's server

  LayerSums sums;
  Measure measure(args.seconds, setup_repeats(args, kSetups));
  do {
    if (measure.setup_due()) {
      const auto paused = Clock::now();
      check_drained(*fixture, completed_here, result);
      completed_here = 0;
      rebuild(fixture, result, make);
      measure.paused_since(paused);
    }
    // One whole cycle of schedules per window, so the per-cycle counts repeat.
    std::uint64_t firings = 0;
    std::vector<double> latencies_ms;
    const double slowdown_before = host_slowdown();
    const Mark window = mark_now();
    for (const PairSchedules& pair : fixture->cycle) {
      firings += run_pair(*fixture, pair, result, sums, latencies_ms);
    }
    const std::uint64_t ok = latencies_ms.size();
    result.windows.push_back(window_since(window, ok, std::move(latencies_ms)));
    result.windows.back().slowdown = (slowdown_before + host_slowdown()) / 2.0;
    result.completed += ok;
    completed_here += ok;
    result.count("ops5.firings", firings);
    result.count("stream.retractions", fixture->cycle_retractions);
  } while (!measure.done());
  check_drained(*fixture, completed_here, result);

  const double ticks = std::max<double>(1.0, static_cast<double>(result.completed));
  const double streams = std::max(1.0, sums.streams);
  result.layers = {
      {"serve.tick_queued_ms", mean(sums.queued_ms)},
      {"serve.tick_service_ms", mean(sums.service_ms)},
      {"serve.close_ms", mean(sums.close_ms)},
      {"rete.resident_wm", sums.resident_wm / streams},
      {"rete.live_tokens", sums.live_tokens / streams},
      {"stream.retractions", sums.retractions / streams},
      {"ops5.firings", sums.firings / ticks},
      {"rete.match_wu", sums.match_wu / ticks},
      {"rete.join_probes", sums.join_probes / ticks},
      {"rete.tokens_created", sums.tokens_created / ticks},
  };
  return result;
}

}  // namespace perfbench
