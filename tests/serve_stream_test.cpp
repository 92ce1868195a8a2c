// Streaming scenes (DESIGN.md §16): incremental delta-match sessions behind
// the unified serve client API. Covers the tick protocol (resident working
// memory between ticks, per-tick checkpoint recovery, terminal failures),
// recycled-context byte identity after stream close, byte-identical stream
// firing logs across a mid-stream pack swap, the stream-vs-batch
// differential, drain force-close, tick-queue shedding, the watchdog's
// per-tick budget, and the "streams" rollup section + validator invariants.
//
// Runs under the TSan CI job: stream handles race the worker pool by design.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/trace.hpp"
#include "ops5/parser.hpp"
#include "serve/server.hpp"
#include "spam/stream_schedule.hpp"

namespace psmsys::serve {
namespace {

// ---------------------------------------------------------------------------
// Streaming workload: items arrive over ticks; rules classify them either
// immediately (ungated) or all at once when a `go` sentinel lands (gated).
// Parity splits the items over two productions so firing-order assertions
// are non-trivial.
// ---------------------------------------------------------------------------

constexpr const char* kStreamSrc = R"(
(literalize seq n parity)
(literalize out n)
(literalize cursor n)
(literalize go n)
(literalize spin n)
(p classify-even (go) (seq ^n <v> ^parity even) --> (make out ^n <v>))
(p classify-odd (go) (seq ^n <v> ^parity odd) --> (make out ^n <v>))
(p advance-even (cursor ^n <v>) (seq ^n <v> ^parity even) -->
   (modify 1 ^n (compute <v> + 1)) (make out ^n <v>))
(p advance-odd (cursor ^n <v>) (seq ^n <v> ^parity odd) -->
   (modify 1 ^n (compute <v> + 1)) (make out ^n <v>))
(p spin-forever (spin ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)";

std::shared_ptr<const SharedRuleBase> stream_rulebase() {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kStreamSrc));
  return SharedRuleBase::compile(std::move(program));
}

const char* parity_of(std::size_t item) { return item % 3 == 0 ? "even" : "odd"; }

void inject_item(ops5::Engine& engine, std::size_t item) {
  // "even"/"odd" already appear in the rules, so they are interned.
  const ops5::Symbol parity = *engine.program().symbols().find(parity_of(item));
  engine.make_wme("seq", {{"n", ops5::Value(static_cast<double>(item))},
                          {"parity", ops5::Value(parity)}});
}

void retract_item(ops5::Engine& engine, std::size_t item) {
  for (const ops5::Wme* wme : engine.wmes_of_class("seq")) {
    if (wme->slot(0).number() == static_cast<double>(item)) {
      engine.remove_wme(*wme);
      return;
    }
  }
  throw std::logic_error("retraction of an item that never arrived");
}

/// Tick job applying one StreamTickSpec's deltas (and optional extras).
SceneJob delta_tick(const spam::StreamTickSpec& spec, bool first_tick_cursor = false,
                    bool last = false, bool gated = false) {
  SceneJob job;
  job.label = "delta";
  job.inject = [spec, first_tick_cursor, last, gated](ops5::Engine& engine) {
    if (first_tick_cursor) engine.make_wme("cursor", {{"n", ops5::Value(0.0)}});
    for (std::size_t item : spec.arrivals) inject_item(engine, item);
    for (std::size_t item : spec.retractions) retract_item(engine, item);
    if (last && gated) engine.make_wme("go", {});
  };
  return job;
}

/// Firing-log bytes minus the `sN| ` session-id prefix.
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

/// "12. advance-even 5 3" -> "12. advance-even": cycle number and production
/// name, timetag columns dropped. Used by the stream-vs-batch differential,
/// where WME creation necessarily interleaves differently (deltas interleave
/// with firings in a stream; a batch injects everything first), so timetags
/// cannot match even when the firing ORDER is identical.
std::string strip_timetags(const std::string& log) {
  std::string out;
  std::size_t pos = 0;
  while (pos < log.size()) {
    std::size_t eol = log.find('\n', pos);
    if (eol == std::string::npos) eol = log.size();
    std::string_view line(log.data() + pos, eol - pos);
    const std::size_t bar = line.find("| ");
    if (bar != std::string_view::npos) line = line.substr(bar + 2);
    // Keep "<cycle>. <name>", drop the matched-WME timetags after it.
    std::size_t cut = line.find(' ');
    if (cut != std::string_view::npos) {
      cut = line.find(' ', cut + 1);
      if (cut != std::string_view::npos) line = line.substr(0, cut);
    }
    out.append(line);
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

void expect_accounting(const ServerStats& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full + s.rejected_draining);
  EXPECT_EQ(s.admitted, s.completed + s.quarantined + s.aborted);
  EXPECT_EQ(s.streams.opened,
            s.streams.completed + s.streams.quarantined + s.streams.aborted);
  EXPECT_EQ(s.streams.ticks,
            s.streams.ticks_completed + s.streams.ticks_failed + s.streams.ticks_shed);
}

spam::StreamScheduleConfig small_schedule_config(std::size_t items, std::size_t ticks,
                                                 double retract_fraction = 0.0) {
  spam::StreamScheduleConfig config;
  config.items = items;
  config.ticks = ticks;
  config.interval_ms = 0;
  config.burstiness = 0.4;
  config.retract_fraction = retract_fraction;
  config.seed = 42;
  return config;
}

// ---------------------------------------------------------------------------
// Tick protocol: resident WM across ticks, per-tick reports, accounting
// ---------------------------------------------------------------------------

TEST(ServeStream, TicksAccumulateResidentWorkingMemory) {
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  Server server(stream_rulebase(), options);

  const auto schedule = spam::make_stream_schedule(small_schedule_config(20, 5));
  StreamHandle stream = server.open_stream("accumulate");
  ASSERT_TRUE(stream.admitted());

  std::uint64_t arrived = 0;
  std::uint64_t last_wm = 0;
  std::uint64_t executed = 0;
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    auto tick = stream.tick(delta_tick(schedule[t], t == 0));
    ASSERT_TRUE(tick.admitted());
    EXPECT_EQ(tick.tick, t);
    const TickReport report = tick.report.get();
    EXPECT_EQ(report.status, SceneStatus::Completed);
    EXPECT_EQ(report.tick, t);
    arrived += schedule[t].arrivals.size();
    // Resident WM survives between ticks: it grows with every delivery
    // (cursor chain: each item also yields one out WME, net growth).
    EXPECT_GE(report.wm_size, arrived);
    EXPECT_GE(report.wm_size, last_wm);
    last_wm = report.wm_size;
    executed += 1;
  }

  auto report_future = stream.close();
  const StreamReport report = report_future.get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  EXPECT_EQ(report.ticks, executed);
  EXPECT_EQ(report.ticks_completed, executed);
  EXPECT_EQ(report.peak_wm, last_wm);
  EXPECT_FALSE(report.drained);
  EXPECT_FALSE(report.firing_log.empty());
  // All 20 items ran through the cursor chain by the last tick.
  EXPECT_GE(report.wmes_streamed, 2u * 20u);

  // Ticks to a closed stream shed with StreamClosed, counted as shed ticks.
  auto late = stream.tick(delta_tick(schedule[0]));
  EXPECT_FALSE(late.admitted());
  EXPECT_EQ(late.rejected, RejectReason::StreamClosed);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.streams.opened, 1u);
  EXPECT_EQ(stats.streams.completed, 1u);
  EXPECT_EQ(stats.streams.ticks, executed + 1);  // + the shed late tick
  EXPECT_EQ(stats.streams.ticks_completed, executed);
  EXPECT_EQ(stats.streams.ticks_shed, 1u);
  EXPECT_EQ(stats.streams.tick_latency.count, executed);
  EXPECT_EQ(stats.streams.peak_resident_wm, report.peak_wm);
  // The stream counts as ONE completed scene in the top-level bins.
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(ServeStream, FailedTickRollsBackToItsCheckpointAndKillsTheStream) {
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  options.session.max_attempts = 1;
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("poisoned");
  ASSERT_TRUE(stream.admitted());

  spam::StreamTickSpec first;
  first.arrivals = {0, 1, 2};
  auto t0 = stream.tick(delta_tick(first, true));
  ASSERT_TRUE(t0.admitted());
  const TickReport r0 = t0.report.get();
  ASSERT_EQ(r0.status, SceneStatus::Completed);
  const std::uint64_t resident = r0.wm_size;

  // Tick 1 injects partial state, then dies: the per-tick checkpoint must
  // discard exactly this tick's effects while tick 0's WM stays resident.
  SceneJob poison;
  poison.label = "poison";
  poison.inject = [](ops5::Engine& engine) {
    inject_item(engine, 7);
    throw std::runtime_error("sensor dropout");
  };
  auto t1 = stream.tick(std::move(poison));
  ASSERT_TRUE(t1.admitted());

  // Tick 2 is queued behind the poison tick; the terminal failure abandons it.
  auto t2 = stream.tick(delta_tick(first));
  const bool t2_admitted = t2.admitted();

  const TickReport r1 = t1.report.get();
  EXPECT_EQ(r1.status, SceneStatus::Quarantined);
  EXPECT_EQ(r1.error, "sensor dropout");

  if (t2_admitted) {
    const TickReport r2 = t2.report.get();
    EXPECT_EQ(r2.status, SceneStatus::Rejected);
    EXPECT_EQ(r2.reject, RejectReason::StreamClosed);
  } else {
    EXPECT_EQ(t2.rejected, RejectReason::StreamClosed);
  }

  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Quarantined);
  EXPECT_EQ(report.ticks_completed, 1u);
  EXPECT_EQ(report.peak_wm, resident);  // the poison tick left nothing behind

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.streams.quarantined, 1u);
  EXPECT_EQ(stats.streams.ticks_failed, 1u);
}

TEST(ServeStream, RecycledContextIsByteIdenticalToFresh) {
  const auto rb = stream_rulebase();
  const auto schedule = spam::make_stream_schedule(small_schedule_config(16, 4));

  const auto run_once = [&schedule](Server& server) {
    StreamHandle stream = server.open_stream("identity");
    EXPECT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      auto tick = stream.tick(delta_tick(schedule[t], t == 0));
      EXPECT_TRUE(tick.admitted());
    }
    return stream.close().get();
  };

  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;

  // Fresh server: first stream ever on this context.
  Server fresh(rb, options);
  const StreamReport baseline = run_once(fresh);
  (void)fresh.drain();
  ASSERT_EQ(baseline.status, SceneStatus::Completed);
  ASSERT_FALSE(baseline.firing_log.empty());

  // Recycled server: the context already served a stream (including a failed
  // tick) and rolled back at close. The next stream must produce the same
  // bytes (modulo the session-id prefix).
  Server recycled(rb, options);
  {
    StreamHandle warmup = recycled.open_stream("warmup");
    ASSERT_TRUE(warmup.admitted());
    (void)warmup.tick(delta_tick(schedule[0], true));
    SceneJob poison;
    poison.label = "poison";
    poison.inject = [](ops5::Engine& engine) {
      inject_item(engine, 3);
      throw std::runtime_error("dropout");
    };
    (void)warmup.tick(std::move(poison));
    (void)warmup.close().get();
  }
  const StreamReport again = run_once(recycled);
  (void)recycled.drain();
  ASSERT_EQ(again.status, SceneStatus::Completed);
  EXPECT_EQ(without_session_prefix(again.firing_log),
            without_session_prefix(baseline.firing_log));
}

// ---------------------------------------------------------------------------
// Mid-stream pack swap: dequeue-time binding, the stream finishes on the
// pack it started on, byte-identically (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ServeStream, MidStreamPackSwapLeavesTheStreamOnItsPack) {
  // Retracting ticks too: the swap must not disturb the stream's journal.
  const auto schedule = spam::make_stream_schedule(small_schedule_config(16, 4, 0.15));
  std::size_t retractions = 0;
  for (const auto& spec : schedule) retractions += spec.retractions.size();
  ASSERT_GT(retractions, 0u);
  ServerOptions options;
  options.workers = 2;
  options.session.capture_firing_log = true;

  // Baseline: the same stream on a server that never swaps.
  std::string baseline_log;
  {
    Server server(stream_rulebase(), options);
    StreamHandle stream = server.open_stream("noswap");
    ASSERT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      auto tick = stream.tick(delta_tick(schedule[t], t == 0));
      ASSERT_TRUE(tick.admitted());
      (void)tick.report.get();
    }
    baseline_log = stream.close().get().firing_log;
    (void)server.drain();
  }

  Server server(stream_rulebase(), options);
  StreamHandle stream = server.open_stream("swapped");
  ASSERT_TRUE(stream.admitted());
  const std::uint64_t boot_pack = server.active_pack();

  for (std::size_t t = 0; t < schedule.size(); ++t) {
    auto tick = stream.tick(delta_tick(schedule[t], t == 0));
    ASSERT_TRUE(tick.admitted());
    // Wait the first tick out so the stream is pinned to its worker (and
    // its pack) before the swap below races the rest.
    if (t == 0) {
      ASSERT_EQ(tick.report.get().status, SceneStatus::Completed);
    }
    if (t == 1) {
      // Identical rules under a new version: the gate passes it, activation
      // repoints NEW dequeues only. The identity comes from the source.
      PackCandidate candidate;
      candidate.program = std::make_shared<const ops5::Program>(
          ops5::parse_program(std::string("(pack stream-pack 2)\n") + kStreamSrc));
      const LoadResult staged = server.stage_pack(candidate);
      ASSERT_TRUE(staged.accepted);
      std::string error;
      ASSERT_TRUE(server.activate_pack(staged.pack, &error)) << error;
      ASSERT_NE(server.active_pack(), boot_pack);
      const std::vector<PackInfo> packs = server.packs();
      ASSERT_EQ(packs.size(), 2u);
      EXPECT_EQ(packs[1].name, "stream-pack");
      EXPECT_EQ(packs[1].version, "2");
    }
  }
  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  // Dequeue-time binding: the stream finished on the pack it started on.
  EXPECT_EQ(report.pack, boot_pack);
  EXPECT_EQ(report.firing_log, baseline_log);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.pack_swaps, 1u);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

// ---------------------------------------------------------------------------
// Stream-vs-batch differential (satellite): replaying the concatenated
// ticks as one batch scene produces the identical final conflict set,
// working memory, and firing sequence
// ---------------------------------------------------------------------------

struct FinalState {
  std::size_t conflict_set = 0;
  std::size_t wm_size = 0;
  std::size_t outs = 0;
  double out_sum = 0.0;
};

FinalState read_final_state(ops5::Engine& engine) {
  FinalState s;
  s.conflict_set = engine.conflict_set_size();
  s.wm_size = engine.wm_size();
  for (const ops5::Wme* wme : engine.wmes_of_class("out")) {
    ++s.outs;
    s.out_sum += wme->slot(0).number();
  }
  return s;
}

/// One batch scene whose inject replays every tick's deltas in order.
SceneJob concatenated_batch(const std::vector<spam::StreamTickSpec>& schedule,
                            bool cursor, bool gated, FinalState* final_state) {
  SceneJob job;
  job.label = "batch";
  job.inject = [&schedule, cursor, gated](ops5::Engine& engine) {
    if (cursor) engine.make_wme("cursor", {{"n", ops5::Value(0.0)}});
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      for (std::size_t item : schedule[t].arrivals) inject_item(engine, item);
      for (std::size_t item : schedule[t].retractions) retract_item(engine, item);
      if (gated && t + 1 == schedule.size()) engine.make_wme("go", {});
    }
  };
  job.collect = [final_state](ops5::Engine& engine) {
    *final_state = read_final_state(engine);
  };
  return job;
}

void run_differential(bool gated) {
  const auto schedule =
      spam::make_stream_schedule(small_schedule_config(24, 6, gated ? 0.2 : 0.0));
  const auto rb = stream_rulebase();
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;

  // Stream run: per-tick incremental match over resident WM.
  FinalState stream_state;
  std::string stream_log;
  {
    Server server(rb, options);
    StreamHandle stream = server.open_stream("diff");
    ASSERT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      SceneJob job = delta_tick(schedule[t], !gated && t == 0,
                                t + 1 == schedule.size(), gated);
      if (t + 1 == schedule.size()) {
        job.collect = [&stream_state](ops5::Engine& engine) {
          stream_state = read_final_state(engine);
        };
      }
      auto tick = stream.tick(std::move(job));
      ASSERT_TRUE(tick.admitted());
      ASSERT_EQ(tick.report.get().status, SceneStatus::Completed);
    }
    stream_log = stream.close().get().firing_log;
    (void)server.drain();
  }

  // Batch run: the concatenated ticks as one scene on a fresh server (the
  // scene id is 0 in both runs, so the session prefixes agree too).
  FinalState batch_state;
  std::string batch_log;
  {
    Server server(rb, options);
    auto result = server.submit(concatenated_batch(schedule, !gated, gated, &batch_state));
    ASSERT_TRUE(result.admitted());
    const SceneReport report = result.report.get();
    ASSERT_EQ(report.status, SceneStatus::Completed);
    batch_log = report.firing_log;
    (void)server.drain();
  }

  ASSERT_FALSE(stream_log.empty());
  EXPECT_EQ(stream_state.conflict_set, batch_state.conflict_set);
  EXPECT_EQ(stream_state.wm_size, batch_state.wm_size);
  EXPECT_EQ(stream_state.outs, batch_state.outs);
  EXPECT_EQ(stream_state.out_sum, batch_state.out_sum);
  if (gated) {
    // Nothing fires before the sentinel, so WME creation order — and hence
    // every timetag — agrees between the two runs: the logs (suffix and all)
    // are byte-identical.
    EXPECT_EQ(stream_log, batch_log);
  } else {
    // Firings interleave with deliveries in the stream, so timetags diverge
    // by construction; the firing SEQUENCE (cycle numbers and production
    // names, in order) must still be identical.
    EXPECT_EQ(strip_timetags(stream_log), strip_timetags(batch_log));
  }
}

TEST(ServeStreamDifferential, GatedBatchReplayIsByteIdentical) { run_differential(true); }

TEST(ServeStreamDifferential, CursorChainFiringSequenceMatchesBatch) {
  run_differential(false);
}

// ---------------------------------------------------------------------------
// Drain force-close and the per-tick watchdog budget
// ---------------------------------------------------------------------------

TEST(ServeStream, DrainForceClosesOpenStreamsAfterQueuedTicks) {
  ServerOptions options;
  options.workers = 1;
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("forever");
  ASSERT_TRUE(stream.admitted());
  spam::StreamTickSpec spec;
  spec.arrivals = {0, 1};
  auto tick = stream.tick(delta_tick(spec, true));
  ASSERT_TRUE(tick.admitted());

  // No close(): drain must force-close the stream, after the queued tick.
  const ServerStats stats = server.drain();
  const TickReport tr = tick.report.get();
  EXPECT_EQ(tr.status, SceneStatus::Completed);

  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.ticks_completed, 1u);

  expect_accounting(stats);
  EXPECT_EQ(stats.streams.drained, 1u);
  EXPECT_EQ(stats.streams.completed, 1u);

  // Ticks after drain shed (stream is dead / server stopped).
  auto late = stream.tick(delta_tick(spec));
  EXPECT_FALSE(late.admitted());
}

TEST(ServeStream, FullTickQueueShedsTheNextTick) {
  ServerOptions options;
  options.workers = 1;
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("backlog");
  ASSERT_TRUE(stream.admitted());

  // The first tick holds the stream's worker until released, so the ticks
  // after it wait in the stream's queue.
  std::promise<void> started;
  std::promise<void> release;
  SceneJob hold;
  hold.label = "hold";
  hold.inject = [&started, released = release.get_future().share()](ops5::Engine& engine) {
    started.set_value();
    released.wait();
    engine.make_wme("cursor", {{"n", ops5::Value(0.0)}});
  };
  auto first = stream.tick(std::move(hold));
  ASSERT_TRUE(first.admitted());
  started.get_future().wait();

  // Sixteen ticks fit in the queue; the seventeenth is shed.
  std::vector<std::future<TickReport>> queued;
  for (std::size_t item = 0; item < 16; ++item) {
    spam::StreamTickSpec spec;
    spec.arrivals = {item};
    auto tick = stream.tick(delta_tick(spec));
    EXPECT_TRUE(tick.admitted()) << "tick " << item + 1;  // no ASSERT: release below
    if (tick.admitted()) queued.push_back(std::move(tick.report));
  }
  spam::StreamTickSpec spec;
  spec.arrivals = {16};
  const auto shed = stream.tick(delta_tick(spec));
  EXPECT_EQ(shed.rejected, RejectReason::QueueFull);

  release.set_value();
  EXPECT_EQ(first.report.get().status, SceneStatus::Completed);
  for (auto& report : queued) EXPECT_EQ(report.get().status, SceneStatus::Completed);
  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  EXPECT_EQ(report.ticks_completed, 17u);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.streams.ticks, 18u);
  EXPECT_EQ(stats.streams.ticks_shed, 1u);
}

TEST(ServeStream, WatchdogBudgetCoversTicksNotIdleStreams) {
  ServerOptions options;
  options.workers = 1;
  options.watchdog_budget = std::chrono::milliseconds(50);
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("patient");
  ASSERT_TRUE(stream.admitted());
  spam::StreamTickSpec spec;
  spec.arrivals = {0};
  auto t0 = stream.tick(delta_tick(spec, true));
  ASSERT_TRUE(t0.admitted());
  ASSERT_EQ(t0.report.get().status, SceneStatus::Completed);

  // Idle longer than the budget: an open-but-idle stream must NOT trip the
  // watchdog — the budget covers a tick, not the stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  spam::StreamTickSpec more;
  more.arrivals = {5};
  auto t1 = stream.tick(delta_tick(more));
  ASSERT_TRUE(t1.admitted());
  EXPECT_EQ(t1.report.get().status, SceneStatus::Completed);

  // A runaway tick IS cut off, terminally for the stream.
  SceneJob runaway;
  runaway.label = "runaway";
  runaway.inject = [](ops5::Engine& engine) {
    engine.make_wme("spin", {{"n", ops5::Value(0.0)}});
  };
  auto t2 = stream.tick(std::move(runaway));
  ASSERT_TRUE(t2.admitted());
  EXPECT_EQ(t2.report.get().status, SceneStatus::Aborted);

  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Aborted);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.streams.aborted, 1u);
}

// ---------------------------------------------------------------------------
// One report: a one-shot scene is tick 0 of its own scene, reported in the
// same struct as a stream's tick
// ---------------------------------------------------------------------------

TEST(ServeReport, OneShotSceneIsTickZeroWithTheGaugesOfAFirstTick) {
  ServerOptions options;
  options.workers = 1;
  Server server(stream_rulebase(), options);
  spam::StreamTickSpec spec;
  spec.arrivals = {0, 1, 2};

  // The stream goes first, so the one-shot scene's id is not 0.
  StreamHandle stream = server.open_stream("first-tick");
  ASSERT_TRUE(stream.admitted());
  auto tick = stream.tick(delta_tick(spec, false, true, true));
  ASSERT_TRUE(tick.admitted());
  const TickReport first_tick = tick.report.get();
  ASSERT_EQ(first_tick.status, SceneStatus::Completed);
  (void)stream.close().get();

  auto submitted = server.submit(delta_tick(spec, false, true, true));
  ASSERT_TRUE(submitted.admitted());
  EXPECT_NE(submitted.scene, 0u);
  EXPECT_EQ(submitted.tick, 0u);
  const SceneReport scene = submitted.report.get();
  ASSERT_EQ(scene.status, SceneStatus::Completed);
  EXPECT_EQ(scene.scene, submitted.scene);
  EXPECT_EQ(scene.tick, 0u);
  // Three items, the sentinel and three classifications stay resident
  // until the close.
  EXPECT_EQ(first_tick.wm_size, 7u);
  EXPECT_EQ(scene.wm_size, first_tick.wm_size);
  EXPECT_EQ(scene.live_tokens, first_tick.live_tokens);
  (void)server.drain();
}

TEST(ServeReport, OneShotReportResolvesOnlyOnceTheBooksCountTheScene) {
  // The client waits on the scene's own tick promise, which the worker
  // resolves after the close and the books: stats() already counts it. A
  // thousand resident WMEs make the close long enough that a promise
  // resolved before it would let the client read the books first.
  ServerOptions options;
  options.workers = 2;
  Server server(stream_rulebase(), options);
  spam::StreamTickSpec spec;
  for (std::size_t item = 0; item < 500; ++item) spec.arrivals.push_back(item);
  constexpr std::uint64_t kScenes = 50;
  for (std::uint64_t i = 0; i < kScenes; ++i) {
    auto submitted = server.submit(delta_tick(spec, false, true, true));
    ASSERT_TRUE(submitted.admitted());
    ASSERT_EQ(submitted.report.get().status, SceneStatus::Completed);
    ASSERT_EQ(server.stats().completed, i + 1) << "scene " << i;
  }
  (void)server.drain();
}

TEST(ServeReport, StreamTickSubmitResultAndReportNameTheStream) {
  Server server(stream_rulebase(), {});
  // A second stream, so the one under test has a non-zero id.
  StreamHandle first = server.open_stream("first");
  StreamHandle stream = server.open_stream("second");
  ASSERT_TRUE(stream.admitted());
  ASSERT_NE(stream.id(), 0u);
  spam::StreamTickSpec spec;
  for (std::uint64_t t = 0; t < 3; ++t) {
    spec.arrivals = {static_cast<std::size_t>(t)};
    auto tick = stream.tick(delta_tick(spec, t == 0));
    ASSERT_TRUE(tick.admitted());
    EXPECT_EQ(tick.scene, stream.id());
    EXPECT_EQ(tick.tick, t);
    const TickReport report = tick.report.get();
    EXPECT_EQ(report.scene, stream.id());
    EXPECT_EQ(report.tick, t);
  }
  (void)stream.close().get();
  (void)first.close().get();
  const auto late = stream.tick(delta_tick(spec));
  EXPECT_EQ(late.rejected, RejectReason::StreamClosed);
  EXPECT_EQ(late.scene, stream.id());
  (void)server.drain();
}

TEST(ServeReport, StreamTraceSpanCountsEveryTickAttempt) {
  obs::Tracer tracer;
  tracer.set_sample_every(0);
  ServerOptions options;
  options.workers = 1;
  options.session.tracer = &tracer;
  Server server(stream_rulebase(), options);
  StreamHandle stream = server.open_stream("traced");
  spam::StreamTickSpec spec;
  for (std::size_t t = 0; t < 3; ++t) {
    spec.arrivals = {t};
    auto tick = stream.tick(delta_tick(spec, t == 0));
    ASSERT_TRUE(tick.admitted());
    ASSERT_EQ(tick.report.get().attempts, 1u);
  }
  (void)stream.close().get();
  (void)server.drain();

  std::vector<std::string> attempts;
  for (const auto& ev : tracer.events()) {
    if (ev.category != "scene") continue;
    for (const auto& [key, value] : ev.args) {
      if (key == "attempts") attempts.push_back(value.dump());
    }
  }
  EXPECT_EQ(attempts, std::vector<std::string>{"3"});
}

// ---------------------------------------------------------------------------
// Rollup: the "streams" section validates; the zero-admitted/packs
// cross-check catches mis-attributed scenes (satellite regression)
// ---------------------------------------------------------------------------

TEST(ServeStreamRollup, MixedOneShotAndStreamDrainValidates) {
  ServerOptions options;
  options.workers = 2;
  Server server(stream_rulebase(), options);

  spam::StreamTickSpec spec;
  spec.arrivals = {0, 1, 2};
  StreamHandle stream = server.open_stream("mixed");
  ASSERT_TRUE(stream.admitted());
  for (int t = 0; t < 3; ++t) {
    auto tick = stream.tick(delta_tick(spec, t == 0, t == 2, true));
    ASSERT_TRUE(tick.admitted());
    ASSERT_EQ(tick.report.get().status, SceneStatus::Completed);
    spec.arrivals = {static_cast<std::size_t>(3 + t)};
  }
  (void)stream.close().get();

  SceneJob oneshot;
  oneshot.label = "oneshot";
  oneshot.inject = [](ops5::Engine& engine) {
    engine.make_wme("go", {});
    inject_item(engine, 2);
  };
  auto r = server.submit(std::move(oneshot));
  ASSERT_TRUE(r.admitted());
  ASSERT_EQ(r.report.get().status, SceneStatus::Completed);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  // One-shot wrappers do NOT report in the stream bins.
  EXPECT_EQ(stats.streams.opened, 1u);
  EXPECT_EQ(stats.streams.ticks_completed, 3u);
  EXPECT_EQ(stats.completed, 2u);  // stream + one-shot

  const obs::json::Value doc = stats.to_json();
  EXPECT_TRUE(obs::validate_serve_rollup(doc).empty());
  auto reparsed = obs::json::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(obs::validate_serve_rollup(*reparsed).empty());

  // Broken tick accounting must not validate.
  ServerStats broken = stats;
  broken.streams.ticks_completed += 1;
  EXPECT_FALSE(obs::validate_serve_rollup(broken.to_json()).empty());
  broken = stats;
  broken.streams.completed += 1;
  EXPECT_FALSE(obs::validate_serve_rollup(broken.to_json()).empty());

  // Every engine metric is a number: an array there does not validate.
  obs::json::Value with_array = doc;
  obs::json::Object* engine = nullptr;
  for (auto& [key, value] : with_array.as_object()) {
    if (key == "engine") engine = &value.as_object();
  }
  ASSERT_NE(engine, nullptr);
  engine->emplace_back("per_node", obs::json::Value(obs::json::Array{obs::json::Value(1)}));
  EXPECT_FALSE(obs::validate_serve_rollup(with_array).empty());
}

TEST(ServeStreamRollup, ZeroAdmittedDrainWithPackScenesIsRejected) {
  // Regression: the validator used to accept a drain that admitted nothing
  // over a non-empty "packs" object with non-zero per-pack scene counts.
  Server server(stream_rulebase(), {});
  const ServerStats stats = server.drain();
  ASSERT_EQ(stats.admitted, 0u);
  ASSERT_FALSE(stats.packs.empty());
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());

  ServerStats broken = stats;
  broken.packs[0].scenes_completed = 5;  // scenes out of thin air
  const auto violations = obs::validate_serve_rollup(broken.to_json());
  ASSERT_FALSE(violations.empty());
  bool cross_check = false;
  for (const std::string& v : violations) {
    if (v.find("zero admitted") != std::string::npos) cross_check = true;
  }
  EXPECT_TRUE(cross_check) << "the zero-admitted/packs cross-check must fire";
}

}  // namespace
}  // namespace psmsys::serve
