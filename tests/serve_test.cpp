// Multi-session interpretation server: shared compiled rule base, admission
// control with backpressure, per-session deadlines + wall-clock budget aborts,
// quarantine of poisoned scenes, fault isolation (byte-identical firing logs
// for healthy sessions), and graceful drain with exactly-once accounting.
//
// Everything here is part of the tier-1 surface and runs under the TSan CI
// job: the server is the most concurrent component in the tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/trace.hpp"
#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "psm/run.hpp"
#include "serve/server.hpp"

namespace psmsys::serve {
namespace {

// ---------------------------------------------------------------------------
// Scene workload: cheap, deterministic, and id-dependent (distinct scenes
// produce distinct firing logs, so byte-identity is a real assertion).
// ---------------------------------------------------------------------------

constexpr const char* kServeSrc = R"(
(literalize job n)
(literalize result n)
(literalize spin n)
(literalize ctr n)
(p finish (job ^n <v>) -(result ^n <v>) --> (make result ^n <v>))
(p spin-forever (spin ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
(p count-to-30 (ctr ^n {<v> < 30}) --> (modify 1 ^n (compute <v> + 1)))
)";

std::shared_ptr<const SharedRuleBase> tiny_rulebase(ops5::EngineConfig options = {}) {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kServeSrc));
  return SharedRuleBase::compile(std::move(program), nullptr, options);
}

/// Finishes in a scene-dependent number of cycles: ctr counts id % 25 -> 30.
SceneJob counting_scene(std::uint64_t id) {
  SceneJob job;
  job.label = "count";
  job.inject = [id](ops5::Engine& engine) {
    engine.make_wme("ctr", {{"n", ops5::Value(static_cast<double>(id % 25))}});
  };
  return job;
}

/// One cycle: job -> result; collect reads the result value back out.
SceneJob result_scene(std::uint64_t id, std::atomic<std::uint64_t>* sum = nullptr) {
  SceneJob job;
  job.label = "result";
  job.inject = [id](ops5::Engine& engine) {
    engine.make_wme("job", {{"n", ops5::Value(static_cast<double>(id))}});
  };
  if (sum != nullptr) {
    job.collect = [sum](ops5::Engine& engine) {
      for (const ops5::Wme* wme : engine.wmes_of_class("result")) {
        *sum += static_cast<std::uint64_t>(wme->slot(0).number());
      }
    };
  }
  return job;
}

/// Livelocks until a deadline or the wall-clock budget cuts it off.
SceneJob runaway_scene() {
  SceneJob job;
  job.label = "runaway";
  job.inject = [](ops5::Engine& engine) {
    engine.make_wme("spin", {{"n", ops5::Value(0.0)}});
  };
  return job;
}

/// Firing-log bytes minus the `sN| ` session-id prefix. Scene identity is the
/// one legitimate difference between runs of the same job under different
/// scene ids; everything after the prefix must still match byte-for-byte.
std::string without_session_prefix(const std::string& log) {
  std::string out;
  std::size_t pos = 0;
  while (pos < log.size()) {
    std::size_t eol = log.find('\n', pos);
    if (eol == std::string::npos) eol = log.size();
    const std::string_view line(log.data() + pos, eol - pos);
    const std::size_t bar = line.find("| ");
    out.append(bar == std::string_view::npos ? line : line.substr(bar + 2));
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

void expect_accounting(const ServerStats& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full + s.rejected_draining);
  EXPECT_EQ(s.admitted, s.completed + s.quarantined + s.aborted);
}

// ---------------------------------------------------------------------------
// Shared rule base: compile-once artifacts, same behavior as a direct engine
// ---------------------------------------------------------------------------

TEST(SharedRuleBase, ExportsTopologyAndSharedArtifacts) {
  const auto rb = tiny_rulebase();
  ASSERT_NE(rb->network(), nullptr);
  const rete::NetworkTopology topo = rb->network()->topology();
  EXPECT_EQ(topo.productions.size(), 3u);
  EXPECT_FALSE(topo.alphas.empty());
  EXPECT_FALSE(topo.joins.empty());
  // Every session engine matches over the rule base's one compiled network.
  const auto first = rb->make_engine();
  const auto second = rb->make_engine();
  EXPECT_EQ(&first->network().compiled(), rb->network().get());
  EXPECT_EQ(&second->network().compiled(), rb->network().get());
}

TEST(SharedRuleBase, EngineOverSharedArtifactsMatchesDirectEngine) {
  const auto rb = tiny_rulebase();
  auto direct_program = std::make_shared<const ops5::Program>(ops5::parse_program(kServeSrc));
  ops5::Engine direct(direct_program, nullptr);
  const auto shared_engine = rb->make_engine();

  const auto firing_log = [](ops5::Engine& engine) {
    std::string log;
    engine.set_watch(1, [&log](const std::string& line) { log += line + "\n"; });
    engine.make_wme("ctr", {{"n", ops5::Value(7.0)}});
    (void)engine.run();
    return log;
  };
  const std::string a = firing_log(direct);
  const std::string b = firing_log(*shared_engine);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Admission control: bounded queue, typed shedding, no blocking
// ---------------------------------------------------------------------------

TEST(ServeAdmission, ShedsWithQueueFullWhenAtCapacity) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  Server server(tiny_rulebase(), options);

  // Occupy the only worker with a scene that blocks until released, then
  // fill the queue to capacity: the next submits must shed, not block.
  std::latch started(1);
  std::latch release(1);
  SceneJob gate;
  gate.label = "gate";
  gate.inject = [&](ops5::Engine&) {
    started.count_down();
    release.wait();
  };
  auto gated = server.submit(std::move(gate));
  ASSERT_TRUE(gated.admitted());
  started.wait();

  std::vector<SubmitResult> queued;
  for (int i = 0; i < 2; ++i) {
    queued.push_back(server.submit(counting_scene(static_cast<std::uint64_t>(i))));
    EXPECT_TRUE(queued.back().admitted());
  }
  for (int i = 0; i < 3; ++i) {
    auto shed = server.submit(counting_scene(99));
    EXPECT_FALSE(shed.admitted());
    EXPECT_EQ(shed.rejected, RejectReason::QueueFull);
    EXPECT_FALSE(shed.report.valid());
  }

  release.count_down();
  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.rejected_queue_full, 3u);
  EXPECT_EQ(stats.completed, 3u);  // gate + the two queued scenes
}

TEST(ServeAdmission, ShedsWithStoppedAfterDrain) {
  Server server(tiny_rulebase(), {});
  (void)server.drain();
  auto shed = server.submit(counting_scene(1));
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.rejected, RejectReason::Stopped);
}

// ---------------------------------------------------------------------------
// Graceful drain: no lost or double-counted scenes (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ServeDrain, NoLostOrDoubleCountedScenes) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  Server server(tiny_rulebase(), options);

  std::atomic<std::uint64_t> sum{0};
  std::vector<SubmitResult> submitted;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < 128; ++i) {
    submitted.push_back(server.submit(result_scene(i, &sum)));
    ASSERT_TRUE(submitted.back().admitted());
    expected_sum += i;
  }
  const ServerStats stats = server.drain();

  // Every admitted scene resolved exactly once, completed, with its own id.
  std::set<SceneId> seen;
  for (auto& s : submitted) {
    ASSERT_TRUE(s.report.valid());
    const SceneReport report = s.report.get();
    EXPECT_EQ(report.status, SceneStatus::Completed);
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_TRUE(seen.insert(report.scene).second);
    EXPECT_GE(report.latency_ns, report.service_ns);
  }
  EXPECT_EQ(seen.size(), 128u);

  expect_accounting(stats);
  EXPECT_EQ(stats.submitted, 128u);
  EXPECT_EQ(stats.completed, 128u);
  EXPECT_EQ(stats.latency.count, 128u);
  EXPECT_GT(stats.scenes_per_sec, 0.0);
  EXPECT_EQ(stats.engine.tasks, 128u);
  // collect ran before rollback: the results were really read out of WM.
  EXPECT_EQ(sum.load(), expected_sum);

  // Drain is idempotent and keeps the final wall clock.
  const ServerStats again = server.drain();
  EXPECT_EQ(again.completed, stats.completed);
  EXPECT_EQ(again.wall_ns, stats.wall_ns);
}

// ---------------------------------------------------------------------------
// Fault storm: poisoned sessions quarantine; healthy sessions' firing logs
// stay byte-identical to a fault-free run (acceptance criterion)
// ---------------------------------------------------------------------------

std::map<SceneId, SceneReport> run_storm(const psm::FaultInjector* injector,
                                         std::size_t n_scenes) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = n_scenes;
  options.session.capture_firing_log = true;
  options.session.max_attempts = 2;
  options.session.cycle_deadline = 200;
  options.session.injector = injector;
  Server server(tiny_rulebase(), options);

  std::vector<SubmitResult> submitted;
  for (std::uint64_t i = 0; i < n_scenes; ++i) {
    submitted.push_back(server.submit(counting_scene(i)));
  }
  (void)server.drain();
  std::map<SceneId, SceneReport> by_scene;
  for (auto& s : submitted) {
    if (!s.admitted()) continue;
    SceneReport report = s.report.get();
    by_scene.emplace(report.scene, std::move(report));
  }
  return by_scene;
}

TEST(ServeFaultStorm, HealthySessionFiringLogsAreByteIdentical) {
  constexpr std::size_t kScenes = 64;
  psm::FaultConfig config;
  config.seed = 0xf00dULL;
  config.poison_rate = 0.3;
  const psm::FaultInjector injector(config);

  const auto baseline = run_storm(nullptr, kScenes);
  const auto stormed = run_storm(&injector, kScenes);
  ASSERT_EQ(baseline.size(), kScenes);
  ASSERT_EQ(stormed.size(), kScenes);

  std::size_t poisoned = 0;
  for (std::uint64_t id = 0; id < kScenes; ++id) {
    const SceneReport& clean = baseline.at(id);
    const SceneReport& fire = stormed.at(id);
    ASSERT_EQ(clean.status, SceneStatus::Completed);
    EXPECT_FALSE(clean.firing_log.empty());
    if (injector.poisoned(id)) {
      ++poisoned;
      // Every attempt failed mid-scene and was rolled back.
      EXPECT_EQ(fire.status, SceneStatus::Quarantined);
      EXPECT_EQ(fire.attempts, 2u);
    } else {
      // The fault storm around it never touched this session: same bytes.
      EXPECT_EQ(fire.status, SceneStatus::Completed);
      EXPECT_EQ(fire.firing_log, clean.firing_log);
    }
  }
  EXPECT_GT(poisoned, 0u);
  EXPECT_LT(poisoned, kScenes);
}

// ---------------------------------------------------------------------------
// Refraction across rollback: an instantiation of the base working memory
// that fires inside a scene must be re-armed when the scene (or a failed
// attempt of it) rolls back. Otherwise a recycled context stops firing it
// while a fresh context still does, and the scene's log depends on what the
// context ran before.
// ---------------------------------------------------------------------------

constexpr const char* kRefractionSrc = R"(
(literalize base x)
(literalize trigger n)
(literalize seen n)
(p on-trigger (trigger ^n <n>) --> (make seen ^n <n>))
(p on-base (base ^x 1) --> (make seen ^n 1))
)";

std::shared_ptr<const SharedRuleBase> refraction_rulebase() {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kRefractionSrc));
  return SharedRuleBase::compile(std::move(program), nullptr);
}

void refraction_base(ops5::Engine& engine) {
  engine.make_wme("base", {{"x", ops5::Value(1.0)}});
}

SceneJob trigger_scene(SceneId id) {
  SceneJob job;
  job.label = "trigger";
  job.inject = [id](ops5::Engine& engine) {
    engine.make_wme("trigger", {{"n", ops5::Value(static_cast<double>(id + 10))}});
  };
  return job;
}

SessionOptions logging_session() {
  SessionOptions options;
  options.capture_firing_log = true;
  return options;
}

/// The scene's log on a context that never ran anything before.
std::string fresh_log(const std::shared_ptr<const SharedRuleBase>& rb, SceneId id) {
  EngineContext fresh(rb, refraction_base, logging_session());
  const SceneReport report = Session(id, fresh).run(trigger_scene(id), {});
  EXPECT_EQ(report.status, SceneStatus::Completed);
  return report.firing_log;
}

TEST(ServeRefraction, RecycledContextLogsMatchFreshContexts) {
  const auto rb = refraction_rulebase();
  EngineContext recycled(rb, refraction_base, logging_session());
  for (SceneId id = 1; id <= 3; ++id) {
    const SceneReport warm = Session(id, recycled).run(trigger_scene(id), {});
    ASSERT_EQ(warm.status, SceneStatus::Completed);
    const std::string cold = fresh_log(rb, id);
    EXPECT_NE(cold.find("on-base"), std::string::npos);
    EXPECT_EQ(warm.firing_log, cold) << "scene " << id;
  }
}

TEST(ServeRefraction, FailedTickCheckpointRollbackReArmsBaseInstantiation) {
  // A seed whose first attempt of scene 1 crashes mid-tick (after firing
  // on-base) and whose retry runs clean.
  psm::FaultConfig config;
  config.transient_rate = 0.5;
  for (config.seed = 1;; ++config.seed) {
    const psm::FaultInjector probe(config);
    if (probe.fails(1, 1) && !probe.fails(1, 2)) break;
  }
  const psm::FaultInjector injector(config);
  const auto rb = refraction_rulebase();
  SessionOptions options = logging_session();
  options.injector = &injector;
  options.max_attempts = 2;
  EngineContext context(rb, refraction_base, options);

  // Twice on the same context: the stream's own checkpoint rollback and the
  // close of the stream before it must both leave on-base armed.
  for (int round = 0; round < 2; ++round) {
    Session session(1, context);
    session.begin();
    const SceneReport tick = session.run_tick(trigger_scene(1), {});
    session.finish();
    ASSERT_EQ(tick.status, SceneStatus::Completed);
    EXPECT_EQ(tick.attempts, 2u);
    EXPECT_EQ(tick.firing_log, fresh_log(rb, 1)) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// One attempt for both executors: a fault plan has the same outcomes
// ---------------------------------------------------------------------------

TEST(SharedAttempt, FaultPlanGivesSameOutcomesThroughRunAndSession) {
  psm::FaultConfig config;
  config.seed = 7;
  config.transient_rate = 0.3;
  config.poison_rate = 0.15;
  config.overrun_rate = 0.25;
  const psm::FaultInjector injector(config);
  constexpr std::uint64_t kScenes = 16;
  constexpr std::uint32_t kMaxAttempts = 3;
  const auto rb = tiny_rulebase();

  psm::TaskProcessFactory factory;
  factory.make_engine = [&rb] { return rb->make_engine(); };
  std::vector<psm::Task> tasks;
  for (std::uint64_t id = 0; id < kScenes; ++id) {
    tasks.push_back({id, "result", result_scene(id).inject});
  }
  psm::RunOptions run_options;
  run_options.robustness.max_attempts = kMaxAttempts;
  run_options.injector = &injector;
  const psm::RunReport report = psm::run(factory, tasks, run_options).report;

  SessionOptions options;
  options.max_attempts = kMaxAttempts;
  options.injector = &injector;
  EngineContext context(rb, {}, options);
  std::set<psm::AttemptResult> seen;
  std::size_t completed_after_retry = 0;
  for (std::uint64_t id = 0; id < kScenes; ++id) {
    const SceneReport scene = Session(id, context).run(result_scene(id), {});
    const auto& attempts = report.attempts[id];
    ASSERT_EQ(scene.attempts, attempts.size()) << "scene " << id;
    const bool completed = attempts.back().result == psm::AttemptResult::Completed;
    EXPECT_EQ(scene.status, completed ? SceneStatus::Completed : SceneStatus::Quarantined);
    // A completed scene carries no error, however many attempts failed
    // first. A quarantined one reports its last failure's cause: the same
    // injected fault or the same 1-cycle overrun as the executor's attempt.
    EXPECT_EQ(scene.error, completed ? "" : attempts.back().error) << "scene " << id;
    if (completed && attempts.size() > 1) ++completed_after_retry;
    // Each attempt's outcome is the plan's: crash, 1-cycle overrun, or done.
    for (const auto& a : attempts) {
      EXPECT_EQ(a.result, injector.fails(id, a.number)      ? psm::AttemptResult::Fault
                          : injector.overruns(id, a.number) ? psm::AttemptResult::DeadlineExceeded
                                                            : psm::AttemptResult::Completed)
          << "scene " << id << " attempt " << a.number;
      seen.insert(a.result);
    }
  }
  EXPECT_EQ(seen.size(), 3u);  // completed, fault and deadline_exceeded attempts
  EXPECT_GT(completed_after_retry, 0u);
  EXPECT_FALSE(report.quarantined_ids.empty());
  EXPECT_GT(report.retries, report.quarantined_ids.size() * (kMaxAttempts - 1));
}

// ---------------------------------------------------------------------------
// Runaway containment: cycle deadline (deterministic) and wall-clock budget
// ---------------------------------------------------------------------------

TEST(ServeRunaway, CycleDeadlineQuarantinesAndNextSceneIsUnperturbed) {
  const auto rb = tiny_rulebase();

  const auto healthy_log = [&rb] {
    ServerOptions options;
    options.workers = 1;
    options.session.capture_firing_log = true;
    Server server(rb, options);
    auto r = server.submit(counting_scene(3));
    (void)server.drain();
    return r.report.get().firing_log;
  }();

  ServerOptions options;
  options.workers = 1;  // both scenes run on the same engine context
  options.session.capture_firing_log = true;
  options.session.cycle_deadline = 40;
  options.session.max_attempts = 3;
  Server server(rb, options);

  auto runaway = server.submit(runaway_scene());
  auto healthy = server.submit(counting_scene(3));
  const ServerStats stats = server.drain();

  const SceneReport bad = runaway.report.get();
  EXPECT_EQ(bad.status, SceneStatus::Quarantined);
  EXPECT_EQ(bad.attempts, 3u);  // 40-, 80-, 160-cycle budgets all overran

  // The runaway left no trace: the next scene on the same context produces
  // the same bytes as on a fresh server (modulo its own scene-id prefix —
  // here it runs as scene 1, the fresh-server baseline ran as scene 0).
  const SceneReport good = healthy.report.get();
  ASSERT_EQ(good.status, SceneStatus::Completed);
  EXPECT_EQ(without_session_prefix(good.firing_log), without_session_prefix(healthy_log));

  expect_accounting(stats);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(ServeRunaway, WatchdogAbortsWallClockRunaway) {
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  options.watchdog_budget = std::chrono::milliseconds(25);
  Server server(tiny_rulebase(), options);

  auto runaway = server.submit(runaway_scene());  // no cycle deadline: wall only
  auto healthy = server.submit(counting_scene(3));
  const ServerStats stats = server.drain();

  const SceneReport bad = runaway.report.get();
  EXPECT_EQ(bad.status, SceneStatus::Aborted);
  EXPECT_EQ(bad.attempts, 1u);  // wall aborts are terminal, never retried

  const SceneReport good = healthy.report.get();
  EXPECT_EQ(good.status, SceneStatus::Completed);
  EXPECT_FALSE(good.firing_log.empty());

  expect_accounting(stats);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

/// Scene 0's first attempt crashes under this plan and its retry runs.
psm::FaultConfig first_attempt_of_scene_0_fails() {
  psm::FaultConfig config;
  config.transient_rate = 0.5;
  for (config.seed = 1;; ++config.seed) {
    const psm::FaultInjector probe(config);
    if (probe.fails(0, 1) && !probe.fails(0, 2)) return config;
  }
}

TEST(ServeRunaway, WallClockBudgetAlsoBoundsARetry) {
  const psm::FaultInjector injector(first_attempt_of_scene_0_fails());
  ServerOptions options;
  options.workers = 1;
  options.session.injector = &injector;
  options.session.max_attempts = 3;
  options.watchdog_budget = std::chrono::milliseconds(25);
  Server server(tiny_rulebase(), options);

  auto runaway = server.submit(runaway_scene());  // scene 0; the retry spins
  const ServerStats stats = server.drain();

  const SceneReport bad = runaway.report.get();
  EXPECT_EQ(bad.status, SceneStatus::Aborted);
  EXPECT_EQ(bad.attempts, 2u);  // the retry ran out of budget; no third try
  expect_accounting(stats);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.retries, 1u);
}

TEST(ServeRunaway, WallClockBudgetStartsWithTheTickNotTheAttempt) {
  // The crashed first attempt spends twice the budget injecting; the retry
  // would finish in a few cycles, but the tick's budget is already gone.
  const psm::FaultInjector injector(first_attempt_of_scene_0_fails());
  ServerOptions options;
  options.workers = 1;
  options.session.injector = &injector;
  options.watchdog_budget = std::chrono::milliseconds(20);
  Server server(tiny_rulebase(), options);

  SceneJob slow_first = counting_scene(3);
  auto injections = std::make_shared<int>(0);
  slow_first.inject = [injections, inject = slow_first.inject](ops5::Engine& engine) {
    if ((*injections)++ == 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    inject(engine);
  };
  auto scene = server.submit(std::move(slow_first));
  (void)server.drain();

  const SceneReport report = scene.report.get();
  EXPECT_EQ(report.status, SceneStatus::Aborted);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(*injections, 2);
}

/// Threads of this process, or nullopt where /proc/self/task is unreadable.
std::optional<std::size_t> thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<std::size_t>(std::distance(it, std::filesystem::directory_iterator()));
}

TEST(ServeRunaway, WallClockBudgetNeedsNoThreadOfItsOwn) {
  const std::optional<std::size_t> before = thread_count();
  if (!before) GTEST_SKIP() << "/proc/self/task is not readable";
  ServerOptions options;
  options.workers = 2;
  options.watchdog_budget = std::chrono::milliseconds(25);
  Server server(tiny_rulebase(), options);
  // The workers and nothing else: each tick times its own budget.
  EXPECT_EQ(thread_count(), *before + 2);
  (void)server.drain();
}

// ---------------------------------------------------------------------------
// Session-prefixed trace output: concurrent sessions never interleave
// ---------------------------------------------------------------------------

TEST(ServeTrace, SinkLinesCarrySessionPrefixAndReassembleByteIdentically) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  options.session.capture_firing_log = true;
  std::mutex lines_mu;
  std::vector<std::string> lines;
  options.session.trace_sink = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  };
  Server server(tiny_rulebase(), options);

  std::vector<SubmitResult> submitted;
  for (std::uint64_t i = 0; i < 32; ++i) {
    submitted.push_back(server.submit(counting_scene(i)));
    ASSERT_TRUE(submitted.back().admitted());
  }
  (void)server.drain();

  // Group the shared stream by its session prefix; each group must equal the
  // per-session captured log byte for byte (nothing interleaved or clobbered).
  std::map<std::string, std::string> by_prefix;
  for (const std::string& line : lines) {
    const auto bar = line.find("| ");
    ASSERT_NE(bar, std::string::npos) << "unprefixed trace line: " << line;
    ASSERT_EQ(line[0], 's');
    by_prefix[line.substr(0, bar + 2)] += line + "\n";
  }
  EXPECT_EQ(by_prefix.size(), 32u);
  for (auto& s : submitted) {
    const SceneReport report = s.report.get();
    const std::string prefix = "s" + std::to_string(report.scene) + "| ";
    EXPECT_EQ(by_prefix.at(prefix), report.firing_log);
  }
}

TEST(ServeTrace, SessionsRecordOnDistinctTracerLanes) {
  obs::Tracer tracer;
  tracer.set_sample_every(0);
  ServerOptions options;
  options.workers = 2;
  options.session.tracer = &tracer;
  Server server(tiny_rulebase(), options);
  std::vector<SubmitResult> submitted;
  for (std::uint64_t i = 0; i < 8; ++i) {
    submitted.push_back(server.submit(counting_scene(i)));
  }
  (void)server.drain();
  for (auto& s : submitted) (void)s.report.get();

  std::set<std::uint32_t> scene_lanes;
  for (const auto& ev : tracer.events()) {
    if (ev.category == "scene") scene_lanes.insert(ev.tid);
  }
  EXPECT_EQ(scene_lanes.size(), 8u);  // one lane per session, never shared
}

// ---------------------------------------------------------------------------
// Rollup schema: the drained stats document validates (and catches breakage)
// ---------------------------------------------------------------------------

TEST(ServeRollup, DrainedStatsValidateAgainstServeSchema) {
  psm::FaultConfig config;
  config.seed = 7;
  config.poison_rate = 0.2;
  const psm::FaultInjector injector(config);
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.session.max_attempts = 2;
  options.session.injector = &injector;
  Server server(tiny_rulebase(), options);
  for (std::uint64_t i = 0; i < 32; ++i) {
    (void)server.submit(counting_scene(i));
  }
  const ServerStats stats = server.drain();
  expect_accounting(stats);

  const obs::json::Value doc = stats.to_json();
  EXPECT_TRUE(obs::validate_serve_rollup(doc).empty());

  // Round-trips through text, and the validator really checks accounting.
  auto reparsed = obs::json::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(obs::validate_serve_rollup(*reparsed).empty());

  ServerStats broken = stats;
  broken.completed += 1;  // a double-counted scene must not validate
  EXPECT_FALSE(obs::validate_serve_rollup(broken.to_json()).empty());
}

TEST(ServeRollup, PacksAndStreamsSectionsAreRequired) {
  // ServerStats::to_json always writes both sections, so a rollup without
  // one was not written by a server.
  Server server(tiny_rulebase(), {});
  (void)server.submit(counting_scene(1));
  const obs::json::Value doc = server.drain().to_json();
  ASSERT_TRUE(obs::validate_serve_rollup(doc).empty());
  for (const std::string section : {"packs", "streams"}) {
    obs::json::Value without = doc;
    std::erase_if(without.as_object(),
                  [&section](const auto& entry) { return entry.first == section; });
    const std::vector<std::string> violations = obs::validate_serve_rollup(without);
    ASSERT_EQ(violations.size(), 1u) << section;
    EXPECT_EQ(violations[0], "$: missing required key \"" + section + "\"");
  }
}

}  // namespace
}  // namespace psmsys::serve
