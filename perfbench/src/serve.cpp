// Workload `serve`: SF LCC Level-2 tasks submitted as one-shot scenes to a
// 2-worker serve::Server. A run is a few segments, each on a freshly built
// fixture and server (so set-ups are spread over the run): an unmeasured
// closed-loop warm-up, then two measured phases, then a drain:
//
//  * open loop — scenes arrive on a fixed schedule (kOpenLoopRate) whatever
//    the server does, and each latency is timed from the scene's due time,
//    so a stall charges every scene queued behind it. An operator thread
//    polls Server::stats() at kStatsPollHz meanwhile. Threads: generator,
//    operator, 2 workers.
//  * closed-loop saturation — the main thread keeps a window of scenes in
//    flight and waits for the oldest before sending the next; throughput
//    comes from here. Threads: submitter, 2 workers.
//
// Each scene does ~0.14 ms of engine work, so admission, dispatch, session
// rollback and stats() contention on the server mutex are a large share of
// its latency.

#include <algorithm>
#include <array>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/bench_schema.hpp"
#include "reload.hpp"
#include "psm/task.hpp"
#include "serve/server.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/scene_generator.hpp"

namespace perfbench {
namespace {

using namespace psmsys;

constexpr double kOpenLoopRate = 2500.0;  ///< scenes/s, about a quarter of saturation
constexpr double kOpenLoopShare = 0.6;    ///< of a segment; the rest saturates
constexpr double kWindowS = 1.0;          ///< length of a measured window
constexpr double kWarmUpS = 0.2;          ///< closed loop on a fresh server, unmeasured
constexpr double kStatsPollHz = 2.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueCapacity = 1 << 16;  ///< never sheds at kOpenLoopRate
constexpr std::size_t kTracedReloads = 3;
constexpr int kSetups = 6;  ///< = segments of a measured run

/// The scene is the SF dataset itself, so every seed serves the same task
/// list (a scene variant per seed moved the latencies by more than the
/// bounds), in the decomposition's order from a seeded starting task. A
/// seeded shuffle was tried and dropped: the order alone moved saturation
/// throughput by up to 25% (8.7k vs 10.9k scenes/s) between seeds, because
/// consecutive tasks of one subject share warm match state.
struct Fixture {
  Fixture() : scene(spam::generate_scene(spam::sf_config())) {}

  spam::Scene scene;  ///< base_init and the task closures refer to it
  spam::Decomposition lcc;
  std::vector<std::size_t> order;  ///< task submitted i-th, repeating
  spam::PhaseProgram phase;
  std::vector<std::uint64_t> ref_positive;  ///< per task, sequential run
  std::vector<std::uint64_t> ref_firings;
  std::function<void(ops5::Engine&)> base_init;
  std::shared_ptr<const serve::SharedRuleBase> rulebase;
  std::unique_ptr<serve::Server> server;  ///< last: drained before the rest dies
};

[[nodiscard]] std::unique_ptr<Fixture> make_fixture(std::uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  const auto best = spam::best_fragments(spam::run_rtf(f->scene, 3).fragments);
  f->lcc = spam::lcc_decomposition(2, f->scene, best);
  const std::size_t ntasks = f->lcc.tasks.size();
  const std::size_t first = mix_seed(seed, 1) % ntasks;
  for (std::size_t i = 0; i < ntasks; ++i) f->order.push_back((first + i) % ntasks);
  f->phase = spam::build_lcc_program();
  f->base_init = [scene = &f->scene, init = f->lcc.factory.base_init](ops5::Engine& e) {
    e.set_user_data(scene);  // the phase externals reach the polygons through this
    init(e);
  };

  // Reference: each task alone on a sequential task process, rolled back
  // after, exactly the isolation a server session gives a scene.
  psm::TaskRunner runner(f->lcc.factory);
  for (const psm::Task& task : f->lcc.tasks) {
    std::uint64_t positive = 0;
    const auto m = runner.run_isolated(task, 0, {}, 0, [&positive](ops5::Engine& e) {
      positive = spam::count_positive_consistency(e);
    });
    f->ref_positive.push_back(positive);
    f->ref_firings.push_back(m.counters.firings);
  }

  f->rulebase = serve::SharedRuleBase::compile(f->phase.program, f->phase.externals.get());
  serve::ServerOptions options;
  options.workers = kWorkers;
  options.queue_capacity = kQueueCapacity;
  options.base_init = f->base_init;
  // The hot-reload gate's live certificate (exercised by traced runs only).
  options.admission_spec = &f->lcc.spec;
  options.admission_seeds = kLccSeedClasses;
  options.admission_outputs = kLccOutputClasses;
  f->server = std::make_unique<serve::Server>(f->rulebase, options);
  return f;
}

/// The job for task `index`; its collect writes the scene's positive count.
[[nodiscard]] serve::SceneJob scene_job(const Fixture& f, std::size_t index,
                                        std::uint64_t* positive) {
  const psm::Task& task = f.lcc.tasks[index];
  serve::SceneJob job;
  job.label = task.label;
  job.inject = task.inject;
  job.collect = [positive](ops5::Engine& e) {
    *positive = spam::count_positive_consistency(e);
  };
  return job;
}

/// Check one terminal report against the sequential reference.
[[nodiscard]] bool check_scene(const Fixture& f, std::size_t index, const serve::SceneReport& r,
                               std::uint64_t positive, Result& result) {
  if (r.status != serve::SceneStatus::Completed) {
    result.fail(std::string("scene ended ") + serve::to_string(r.status) + ": " + r.error);
    return false;
  }
  if (positive != f.ref_positive[index] || r.counters.firings != f.ref_firings[index]) {
    result.fail("scene " + f.lcc.tasks[index].label + ": positive " + std::to_string(positive) +
                " firings " + std::to_string(r.counters.firings) + ", reference " +
                std::to_string(f.ref_positive[index]) + " / " +
                std::to_string(f.ref_firings[index]));
    return false;
  }
  return true;
}

struct OpenLoopLayers {
  std::vector<double> submit_us, queued_ms, service_ms, late_ms, stats_ms;
  double firings = 0, match_wu = 0, join_probes = 0, tokens_created = 0;
};

/// Open loop for `seconds`; one Window per kWindowS of due times. Returns
/// the scenes that completed correctly.
std::uint64_t open_loop(Fixture& f, double seconds, Result& result, OpenLoopLayers& layers) {
  const auto per_window = static_cast<std::size_t>(kOpenLoopRate * kWindowS);
  const std::size_t n = per_window * static_cast<std::size_t>(std::max(1.0, seconds / kWindowS));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopRate));
  const std::size_t ntasks = f.order.size();

  std::vector<std::uint64_t> positive(n, 0);
  std::vector<std::future<serve::SceneReport>> reports(n);
  std::vector<double> late_ms(n, 0.0);
  std::vector<bool> admitted(n, false);
  std::vector<Mark> marks;  ///< at each window's first due time, then at the end

  // jthread: joined (after a stop request) on every path out of here.
  std::jthread op([&](const std::stop_token& stop) {
    const auto poll = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kStatsPollHz));
    auto next = Clock::now() + poll;
    while (!stop.stop_requested()) {
      std::this_thread::sleep_until(next);
      next += poll;
      const auto t = Clock::now();
      const serve::ServerStats stats = f.server->stats();
      layers.stats_ms.push_back(ms_between(t, Clock::now()));
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i <= n; ++i) {
    const auto due = start + period * static_cast<Clock::rep>(i);
    std::this_thread::sleep_until(due);
    if (i % per_window == 0) marks.push_back(mark_now());
    if (i == n) break;
    const auto sent = Clock::now();
    serve::SubmitResult r = f.server->submit(scene_job(f, f.order[i % ntasks], &positive[i]));
    layers.submit_us.push_back(ms_between(sent, Clock::now()) * 1e3);
    late_ms[i] = ms_between(due, sent);
    ++result.attempted;
    if (!r.admitted()) {
      result.fail(std::string("scene shed: ") + serve::to_string(r.rejected));
      continue;
    }
    admitted[i] = true;
    reports[i] = std::move(r.report);
  }
  std::uint64_t completed = 0;
  for (std::size_t w = 0; w + 1 < marks.size(); ++w) {
    std::vector<double> latencies_ms;
    for (std::size_t i = w * per_window; i < (w + 1) * per_window; ++i) {
      if (!admitted[i]) continue;
      const serve::SceneReport r = reports[i].get();
      if (!check_scene(f, f.order[i % ntasks], r, positive[i], result)) continue;
      latencies_ms.push_back(late_ms[i] + static_cast<double>(r.latency_ns) / 1e6);
      layers.queued_ms.push_back(static_cast<double>(r.queued_ns) / 1e6);
      layers.service_ms.push_back(static_cast<double>(r.service_ns) / 1e6);
      layers.firings += static_cast<double>(r.counters.firings);
      layers.match_wu += static_cast<double>(r.counters.match_cost);
      layers.join_probes += static_cast<double>(r.counters.join_probes);
      layers.tokens_created += static_cast<double>(r.counters.tokens_created);
    }
    Window window;
    window.wall_s = std::chrono::duration<double>(marks[w + 1].wall - marks[w].wall).count();
    window.cpu_s = marks[w + 1].cpu - marks[w].cpu;
    window.ops = latencies_ms.size();
    window.latencies_ms = std::move(latencies_ms);
    completed += window.ops;
    result.windows.push_back(std::move(window));
  }
  layers.late_ms.insert(layers.late_ms.end(), late_ms.begin(), late_ms.end());
  op.request_stop();
  op.join();
  return completed;
}

/// Closed loop: the main thread keeps kWindow scenes in flight, so the
/// workers never wait on a submitter's wake-up. With `windows`, closes one
/// Window per kWindowS. Returns the scenes that completed correctly. (Two
/// submitters with one scene each in flight measured their own wake-ups, a
/// 14% spread; two with 8 each kept all four vCPUs busy and moved with every
/// neighbour on the host, a 21% spread.)
std::uint64_t saturate(Fixture& f, double seconds, Result& result, std::vector<Window>* windows) {
  constexpr std::size_t kWindow = 16;
  struct InFlight {
    std::size_t index = 0;
    std::uint64_t positive = 0;  ///< written by the scene's collect
    std::future<serve::SceneReport> report;
  };
  std::array<InFlight, kWindow> window;
  std::uint64_t completed = 0;
  std::uint64_t in_window = 0;
  const auto settle = [&](InFlight& slot) {
    if (!slot.report.valid()) return;
    const serve::SceneReport report = slot.report.get();
    if (check_scene(f, slot.index, report, slot.positive, result)) ++in_window;
  };
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowS));

  Mark mark = mark_now();
  const auto end = mark.wall + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  auto window_end = mark.wall + span;
  const auto close_window = [&] {
    if (windows != nullptr) windows->push_back(window_since(mark, in_window, {}));
    completed += in_window;
    in_window = 0;
    mark = mark_now();
    window_end = mark.wall + span;
  };
  for (std::size_t n = 0; Clock::now() < end; ++n) {
    if (Clock::now() >= window_end) close_window();
    InFlight& slot = window[n % kWindow];
    settle(slot);
    slot.index = f.order[n % f.order.size()];
    ++result.attempted;
    serve::SubmitResult r = f.server->submit(scene_job(f, slot.index, &slot.positive));
    if (!r.admitted()) {
      result.fail(std::string("scene shed: ") + serve::to_string(r.rejected));
      continue;
    }
    slot.report = std::move(r.report);
  }
  for (InFlight& slot : window) settle(slot);
  close_window();
  return completed;
}

/// Drain a fixture's server and check its rollup against the scenes its
/// clients saw complete.
void check_drained(Fixture& f, std::uint64_t completed, Result& result) {
  const serve::ServerStats stats = f.server->drain();
  for (const auto& v : obs::validate_serve_rollup(stats.to_json())) {
    result.fail("serve rollup: " + v);
  }
  if (stats.completed != completed) {
    result.fail("server completed " + std::to_string(stats.completed) + " scenes, clients saw " +
                std::to_string(completed));
  }
}

/// Traced only: the same jobs through Session::run on a standalone context,
/// the engine work a scene costs without the server around it.
double session_run_ms(const Fixture& f, Result& result) {
  serve::EngineContext context(f.rulebase, f.base_init, serve::SessionOptions{});
  std::vector<double> ms;
  for (std::size_t i = 0; i < f.lcc.tasks.size(); ++i) {
    std::uint64_t positive = 0;
    const serve::SceneJob job = scene_job(f, i, &positive);
    const auto t = Clock::now();
    const serve::SceneReport r = serve::Session(i + 1, context).run(job, {});
    ms.push_back(ms_between(t, Clock::now()));
    if (r.status != serve::SceneStatus::Completed || positive != f.ref_positive[i]) {
      result.fail("standalone session diverged from the reference on " + f.lcc.tasks[i].label);
    }
  }
  return mean(ms);
}

}  // namespace

Result run_serve(const Args& args) {
  Result result;
  // A measured run is kSetups segments, each on a freshly built fixture:
  // warm-up, open loop, saturation, drain. A traced run is one segment.
  const int segments = setup_repeats(args, kSetups);
  const double segment_s = args.seconds / segments;
  OpenLoopLayers layers;
  std::uint64_t open_loop_scenes = 0;
  std::unique_ptr<Fixture> fixture;
  for (int s = 0; s < segments; ++s) {
    rebuild(fixture, result, [&] { return make_fixture(args.seed); });
    std::uint64_t completed = saturate(*fixture, kWarmUpS, result, nullptr);
    const std::uint64_t open = open_loop(*fixture, segment_s * kOpenLoopShare, result, layers);
    open_loop_scenes += open;
    completed += open;
    completed += saturate(*fixture, segment_s * (1.0 - kOpenLoopShare), result,
                          &result.rate_windows);
    result.completed += completed;
    // The last traced segment then hot-reloads the idle server a few times.
    if (args.trace && s + 1 == segments) {
      completed += trace_hot_reloads(*fixture->server, fixture->lcc, fixture->phase,
                                     fixture->order.front(), kTracedReloads, result);
    }
    check_drained(*fixture, completed, result);
  }

  // The task list is the unit of work: its firings must repeat run to run.
  std::uint64_t list_firings = 0;
  for (const std::uint64_t firings : fixture->ref_firings) list_firings += firings;
  result.count("ops5.firings", list_firings);
  result.count("serve.tasks", fixture->ref_firings.size());

  if (args.trace) {
    const double ops = std::max<double>(1.0, static_cast<double>(open_loop_scenes));
    const double session_ms = session_run_ms(*fixture, result);
    const double service_ms = mean(layers.service_ms);
    result.layers.insert(result.layers.begin(), {
        {"serve.submit_us", mean(layers.submit_us)},
        {"serve.queued_ms", mean(layers.queued_ms)},
        {"serve.service_ms", service_ms},
        {"session.run_ms", session_ms},
        {"serve.overhead_share", service_ms > 0.0 ? 1.0 - session_ms / service_ms : 0.0},
        {"serve.stats_ms", mean(layers.stats_ms)},
        {"gen.late_ms", percentile(layers.late_ms, 90.0)},
        {"ops5.firings", layers.firings / ops},
        {"rete.match_wu", layers.match_wu / ops},
        {"rete.join_probes", layers.join_probes / ops},
        {"rete.tokens_created", layers.tokens_created / ops},
    });
  }
  return result;
}

}  // namespace perfbench
