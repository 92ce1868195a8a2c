// Versioned hot-reload of the interpretation server (DESIGN.md §15): the
// admission gate in front of stage_pack, atomic activation with dequeue-time
// pack binding (in-flight scenes finish byte-identical on their old pack),
// rejection keeping the live pack serving, rollback, the admin channel, and
// the extended serve rollup (packs registry).
//
// Runs under the TSan CI job: swaps race the worker pool by design.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/bench_schema.hpp"
#include "ops5/parser.hpp"
#include "serve/server.hpp"

namespace psmsys::serve {
namespace {

// ---------------------------------------------------------------------------
// Two pack versions with visibly different firing logs, plus a rogue one
// ---------------------------------------------------------------------------

constexpr const char* kV1 = R"(
(pack tiny 1)
(literalize job n)
(literalize result n m)
(p finish (job ^n <v>) --> (make result ^n <v> ^m 0))
)";

// v2 adds `echo`: every scene fires one extra production, so v1 and v2 logs
// differ byte-wise and a scene's log proves which pack served it.
constexpr const char* kV2 = R"(
(pack tiny 2)
(literalize job n)
(literalize result n m)
(p finish (job ^n <v>) --> (make result ^n <v> ^m 0))
(p echo (job ^n <v>) --> (make result ^n <v> ^m 1))
)";

// The rogue writes `result` with a CONSTANT key: two tasks collide on ^n 7,
// the injected interference regression the gate must catch (AN011).
constexpr const char* kRogue = R"(
(pack tiny rogue)
(literalize job n)
(literalize result n m)
(p finish (job ^n <v>) --> (make result ^n <v> ^m 0))
(p rogue (job) --> (make result ^n 7 ^m 2))
)";

[[nodiscard]] std::shared_ptr<const ops5::Program> parse(const char* source) {
  return std::make_shared<const ops5::Program>(ops5::parse_program(source));
}

/// The live independence certificate: two tasks, each injecting its own job,
/// writing result WMEs keyed by ^n — disjoint until the rogue shows up.
[[nodiscard]] analysis::DecompositionSpec make_spec(
    const std::shared_ptr<const ops5::Program>& program) {
  analysis::DecompositionSpec spec;
  spec.program = program;
  const auto cls = [&](const char* name) {
    return *program->class_index(*program->symbols().find(name));
  };
  analysis::ResultClassSpec result;
  result.cls = cls("result");
  result.key_slots = {program->wme_class(cls("result")).slot_of(*program->symbols().find("n"))};
  spec.result_classes = {result};
  for (std::uint64_t t = 0; t < 2; ++t) {
    analysis::TaskSpec task;
    task.task_id = t;
    task.label = "task-" + std::to_string(t);
    analysis::TaskWmeSpec wme;
    wme.cls = cls("job");
    wme.slots = {{program->wme_class(cls("job")).slot_of(*program->symbols().find("n")),
                  ops5::Value(static_cast<double>(1 + t))}};
    task.wmes = {wme};
    spec.tasks.push_back(std::move(task));
  }
  return spec;
}

[[nodiscard]] SceneJob job_scene(std::uint64_t n) {
  SceneJob job;
  job.label = "job";
  job.inject = [n](ops5::Engine& engine) {
    engine.make_wme("job", {{"n", ops5::Value(static_cast<double>(n))}});
  };
  return job;
}

/// Firing-log bytes minus the `sN| ` session-id prefix (scene identity is the
/// one legitimate difference between identical jobs under different ids).
[[nodiscard]] std::string without_session_prefix(const std::string& log) {
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

/// Reference log of `job_scene(n)` on a single-pack server over `source`.
[[nodiscard]] std::string reference_log(const char* source, std::uint64_t n) {
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  Server server(SharedRuleBase::compile(parse(source)), options);
  auto r = server.submit(job_scene(n));
  const SceneReport report = r.report.get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  return without_session_prefix(report.firing_log);
}

/// A server over the v1 boot pack with the certificate armed for the gate.
struct GatedServer {
  std::shared_ptr<const ops5::Program> program = parse(kV1);
  analysis::DecompositionSpec spec = make_spec(program);
  std::unique_ptr<Server> server;

  explicit GatedServer(std::size_t workers, std::size_t queue = 64) {
    ServerOptions options;
    options.workers = workers;
    options.queue_capacity = queue;
    options.session.capture_firing_log = true;
    options.admission_spec = &spec;
    options.admission_outputs = {{"result"}};
    server = std::make_unique<Server>(SharedRuleBase::compile(program), options);
  }
};

[[nodiscard]] PackCandidate candidate(const char* source) {
  PackCandidate c;
  c.program = parse(source);
  return c;
}

void expect_accounting(const ServerStats& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full + s.rejected_draining);
  EXPECT_EQ(s.admitted, s.completed + s.quarantined + s.aborted);
  std::uint64_t per_pack = 0;
  for (const auto& p : s.packs) per_pack += p.scenes_completed;
  EXPECT_EQ(per_pack, s.completed);
}

// ---------------------------------------------------------------------------
// Accepted swap: atomic activation, old scenes byte-identical
// ---------------------------------------------------------------------------

TEST(PackSwap, AcceptedPackActivatesAndNewScenesUseIt) {
  const std::string v1_log = reference_log(kV1, 3);
  const std::string v2_log = reference_log(kV2, 3);
  ASSERT_NE(v1_log, v2_log);

  GatedServer gs(2);
  EXPECT_EQ(gs.server->active_pack(), 1u);

  // Scenes fully served before the swap: pure v1 logs.
  for (int i = 0; i < 8; ++i) {
    auto r = gs.server->submit(job_scene(3));
    const SceneReport report = r.report.get();
    ASSERT_EQ(report.status, SceneStatus::Completed);
    EXPECT_EQ(without_session_prefix(report.firing_log), v1_log);
  }

  const LoadResult load = gs.server->stage_pack(candidate(kV2));
  EXPECT_TRUE(load.accepted);
  EXPECT_TRUE(load.verdict.accepted());
  std::string error;
  EXPECT_TRUE(gs.server->activate_pack(load.pack, &error)) << error;
  EXPECT_EQ(gs.server->active_pack(), load.pack);

  // Scenes submitted after activation: pure v2 logs, zero failures.
  for (int i = 0; i < 8; ++i) {
    auto r = gs.server->submit(job_scene(3));
    const SceneReport report = r.report.get();
    ASSERT_EQ(report.status, SceneStatus::Completed);
    EXPECT_EQ(without_session_prefix(report.firing_log), v2_log);
  }

  const ServerStats stats = gs.server->drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.pack_swaps, 1u);
  EXPECT_EQ(stats.packs_loaded, 2u);
  EXPECT_EQ(stats.packs_rejected, 0u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

TEST(PackSwap, InFlightScenesFinishByteIdenticalAcrossSwap) {
  const std::string v1_log = reference_log(kV1, 5);
  const std::string v2_log = reference_log(kV2, 5);

  GatedServer gs(2, /*queue=*/256);
  // Fill the queue, swap while scenes are in flight, then keep submitting:
  // every scene must complete, and every log must be exactly the v1 or v2
  // log — never a torn mix (a scene dequeued on one pack finishing on
  // another would produce bytes matching neither reference).
  std::vector<std::future<SceneReport>> reports;
  for (int i = 0; i < 64; ++i) {
    auto r = gs.server->submit(job_scene(5));
    ASSERT_TRUE(r.admitted());
    reports.push_back(std::move(r.report));
  }
  // The queue is FIFO: once scene 15 has finished, scenes 0..15 were all
  // dequeued — and therefore pack-bound — strictly before the activation
  // below, pinning at least 16 logs to v1.
  reports[15].wait();
  const LoadResult load = gs.server->stage_pack(candidate(kV2));
  std::string error;
  ASSERT_TRUE(gs.server->activate_pack(load.pack, &error)) << error;
  for (int i = 0; i < 64; ++i) {
    auto r = gs.server->submit(job_scene(5));
    ASSERT_TRUE(r.admitted());
    reports.push_back(std::move(r.report));
  }

  std::size_t on_v1 = 0, on_v2 = 0;
  for (auto& f : reports) {
    const SceneReport report = f.get();
    ASSERT_EQ(report.status, SceneStatus::Completed) << report.error;
    const std::string log = without_session_prefix(report.firing_log);
    if (log == v1_log) {
      ++on_v1;
    } else if (log == v2_log) {
      ++on_v2;
    } else {
      FAIL() << "scene log matches neither pack:\n" << log;
    }
  }
  // Scenes submitted after activation are guaranteed v2, so both packs served.
  EXPECT_GE(on_v1, 16u);
  EXPECT_GE(on_v2, 64u);

  const ServerStats stats = gs.server->drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.completed, 128u);
  EXPECT_EQ(stats.aborted + stats.quarantined, 0u);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

// ---------------------------------------------------------------------------
// Rejection and rollback
// ---------------------------------------------------------------------------

TEST(PackSwap, RejectedPackNeverActivates) {
  const std::string v1_log = reference_log(kV1, 4);

  GatedServer gs(2);
  const LoadResult load = gs.server->stage_pack(candidate(kRogue));
  EXPECT_FALSE(load.accepted);
  EXPECT_FALSE(load.verdict.accepted());
  EXPECT_EQ(gs.server->active_pack(), 1u);

  // The verdict is retained for the admin surface and carries the AN011.
  const auto verdict = gs.server->verdict_json(load.pack);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("AN011"), std::string::npos);

  // Explicit activation of the rejected pack is refused too.
  std::string error;
  EXPECT_FALSE(gs.server->activate_pack(load.pack, &error));
  EXPECT_NE(error.find("rejected"), std::string::npos);

  // And the live pack keeps serving, untouched.
  auto r = gs.server->submit(job_scene(4));
  const SceneReport report = r.report.get();
  ASSERT_EQ(report.status, SceneStatus::Completed);
  EXPECT_EQ(without_session_prefix(report.firing_log), v1_log);

  const ServerStats stats = gs.server->drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.packs_rejected, 1u);
  EXPECT_EQ(stats.pack_swaps, 0u);
  ASSERT_EQ(stats.packs.size(), 2u);
  EXPECT_EQ(stats.packs[1].state, PackState::Rejected);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

TEST(PackSwap, RollbackRestoresThePreviousPack) {
  const std::string v1_log = reference_log(kV1, 6);
  const std::string v2_log = reference_log(kV2, 6);

  GatedServer gs(2);
  // No swap yet: nothing to roll back to.
  std::string error;
  EXPECT_FALSE(gs.server->rollback_pack(&error));
  EXPECT_FALSE(error.empty());

  const LoadResult load = gs.server->stage_pack(candidate(kV2));
  ASSERT_TRUE(gs.server->activate_pack(load.pack, &error)) << error;
  {
    auto r = gs.server->submit(job_scene(6));
    EXPECT_EQ(without_session_prefix(r.report.get().firing_log), v2_log);
  }

  EXPECT_TRUE(gs.server->rollback_pack(&error)) << error;
  EXPECT_EQ(gs.server->active_pack(), 1u);
  {
    auto r = gs.server->submit(job_scene(6));
    EXPECT_EQ(without_session_prefix(r.report.get().firing_log), v1_log);
  }

  const ServerStats stats = gs.server->drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.pack_swaps, 1u);
  EXPECT_EQ(stats.pack_rollbacks, 1u);
  EXPECT_EQ(stats.active_pack, 1u);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

TEST(PackSwap, ActivationErrors) {
  GatedServer gs(1);
  std::string error;
  EXPECT_FALSE(gs.server->activate_pack(99, &error));
  EXPECT_NE(error.find("unknown"), std::string::npos);
  EXPECT_FALSE(gs.server->activate_pack(1, &error));
  EXPECT_NE(error.find("already active"), std::string::npos);

  (void)gs.server->drain();
  const LoadResult load = gs.server->stage_pack(candidate(kV2));
  EXPECT_TRUE(load.accepted);  // staging is pure analysis; still allowed
  EXPECT_FALSE(gs.server->activate_pack(load.pack, &error));
  EXPECT_NE(error.find("stopped"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Swaps racing the worker pool (the TSan surface)
// ---------------------------------------------------------------------------

TEST(PackSwap, RepeatedSwapsUnderLoad) {
  GatedServer gs(4, /*queue=*/512);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        auto r = gs.server->submit(job_scene(7));
        if (!r.admitted()) continue;
        if (r.report.get().status == SceneStatus::Completed) ++completed;
      }
    });
  }

  // Swap forward and roll back, repeatedly, while the pool is saturated.
  const LoadResult load = gs.server->stage_pack(candidate(kV2));
  std::string error;
  ASSERT_TRUE(gs.server->activate_pack(load.pack, &error)) << error;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(gs.server->rollback_pack(&error)) << error;
    while (completed.load() < static_cast<std::uint64_t>(8 * (i + 1))) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  const ServerStats stats = gs.server->drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.pack_swaps, 1u);
  EXPECT_EQ(stats.pack_rollbacks, 6u);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

// ---------------------------------------------------------------------------
// Admin channel
// ---------------------------------------------------------------------------

TEST(PackSwap, AdminChannel) {
  GatedServer gs(1);
  EXPECT_NE(gs.server->admin_talk("help").find("pack swap"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("pack list").find("tiny@1"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("nonsense").find("unknown command"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("pack swap x").find("bad pack id"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("pack verdict 42").find("unknown pack"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("pack verdict 1").find("ungated boot pack"),
            std::string::npos);

  const LoadResult load = gs.server->stage_pack(candidate(kV2));
  ASSERT_TRUE(load.accepted);
  const std::string id = std::to_string(load.pack);
  EXPECT_NE(gs.server->admin_talk("pack verdict " + id).find("admission-verdict-v1"),
            std::string::npos);
  EXPECT_NE(gs.server->admin_talk("pack swap " + id).find("active"), std::string::npos);
  EXPECT_EQ(gs.server->active_pack(), load.pack);
  EXPECT_NE(gs.server->admin_talk("pack rollback").find("rolled back"), std::string::npos);
  EXPECT_EQ(gs.server->active_pack(), 1u);
  EXPECT_NE(gs.server->admin_talk("stats").find("serve_rollup"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("drain").find("drained"), std::string::npos);
}

TEST(PackSwap, AdminChannelPackIdZeroIsUnknown) {
  // Pack ids are dense from 1, so 0 lies below every registered id.
  GatedServer gs(1);
  EXPECT_NE(gs.server->admin_talk("pack verdict 0").find("unknown pack id"), std::string::npos);
  EXPECT_NE(gs.server->admin_talk("pack swap 0").find("unknown pack id"), std::string::npos);
  EXPECT_EQ(gs.server->active_pack(), 1u);
}

}  // namespace
}  // namespace psmsys::serve
