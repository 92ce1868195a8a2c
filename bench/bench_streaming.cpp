// Streaming scenes (DESIGN.md §16): measured behavior of incremental
// delta-match sessions on the serve layer. Two cases:
//
//   1. steady-state flatness — one long stream (>= 50 ticks, even arrival
//      pacing, sensor-revision retractions) against a 1-worker pool. The
//      incremental-match claim: per-tick match cost tracks the *delta*, not
//      the resident working memory, so the last tick's deterministic match
//      work-units must stay within 2x of the first tick's even as resident
//      WM grows monotonically. Host-time tick latency (p50/p99) and
//      deltas/sec are reported alongside; the gate is on the deterministic
//      counters so the case never flakes on a loaded host.
//   2. determinism — a mid-stream hot pack swap (identical rules, new
//      version) must leave the stream's concatenated firing log
//      byte-identical to a run without the swap: the stream finishes on the
//      pack it was dequeued with.
//
// Every rollup is validated against the serve schema
// (obs::validate_serve_rollup) before it is reported; a violation fails the
// case and the harness exits nonzero.

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.hpp"
#include "obs/bench_schema.hpp"
#include "ops5/parser.hpp"
#include "serve/server.hpp"
#include "spam/stream_schedule.hpp"

namespace psmsys::bench {
namespace {

// ---------------------------------------------------------------------------
// Flatness workload: arriving regions are classified once (fresh -> done) by
// mode. A classified region fails the alpha constant test on ^stage, so it
// drops out of every alpha memory: per-tick match traffic is proportional to
// the tick's deltas while the resident region population keeps growing.
// ---------------------------------------------------------------------------

constexpr const char* kRegionSrc = R"(
(literalize region id stage mode)
(literalize hypothesis id)
(literalize params mode)
(p classify (params ^mode <m>) (region ^id <r> ^stage fresh ^mode <m>)
   --> (make hypothesis ^id <r>) (modify 2 ^stage done))
)";

void inject_region(ops5::Engine& engine, std::size_t item) {
  // "fresh" appears in the rule text, so it is interned in the frozen table.
  const ops5::Symbol fresh = *engine.program().symbols().find("fresh");
  engine.make_wme("region", {{"id", ops5::Value(static_cast<double>(item))},
                             {"stage", ops5::Value(fresh)},
                             {"mode", ops5::Value(static_cast<double>(item % 2))}});
}

void retract_region(ops5::Engine& engine, std::size_t item) {
  for (const ops5::Wme* wme : engine.wmes_of_class("region")) {
    if (wme->slot(0).number() == static_cast<double>(item)) {
      engine.remove_wme(*wme);
      return;
    }
  }
  throw std::logic_error("retraction of a region that never arrived");
}

[[nodiscard]] serve::SceneJob region_tick(const spam::StreamTickSpec& spec) {
  serve::SceneJob job;
  job.label = "delta";
  job.inject = [spec](ops5::Engine& engine) {
    for (std::size_t item : spec.arrivals) inject_region(engine, item);
    for (std::size_t item : spec.retractions) retract_region(engine, item);
  };
  return job;
}

// ---------------------------------------------------------------------------
// Determinism workload: parity splits arrivals over two productions so the
// firing order within a tick is a real resolution outcome, not a triviality.
// ---------------------------------------------------------------------------

constexpr const char* kParitySrc = R"(
(literalize item n parity)
(literalize out n)
(p note-even (item ^n <v> ^parity even) --> (make out ^n <v>))
(p note-odd (item ^n <v> ^parity odd) --> (make out ^n <v>))
)";

void inject_parity_item(ops5::Engine& engine, std::size_t item) {
  const ops5::Symbol parity =
      *engine.program().symbols().find(item % 3 == 0 ? "even" : "odd");
  engine.make_wme("item", {{"n", ops5::Value(static_cast<double>(item))},
                           {"parity", ops5::Value(parity)}});
}

void retract_parity_item(ops5::Engine& engine, std::size_t item) {
  for (const ops5::Wme* wme : engine.wmes_of_class("item")) {
    if (wme->slot(0).number() == static_cast<double>(item)) {
      engine.remove_wme(*wme);
      return;
    }
  }
  throw std::logic_error("retraction of an item that never arrived");
}

[[nodiscard]] serve::SceneJob parity_tick(const spam::StreamTickSpec& spec) {
  serve::SceneJob job;
  job.label = "delta";
  job.inject = [spec](ops5::Engine& engine) {
    for (std::size_t item : spec.arrivals) inject_parity_item(engine, item);
    for (std::size_t item : spec.retractions) retract_parity_item(engine, item);
  };
  return job;
}

/// Firing-log bytes minus the `sN| ` session-id prefix, so logs compare
/// across servers regardless of scene-id assignment.
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

/// Drive one closed-loop stream (tick, wait for its report, next tick) over
/// `schedule` and return the concatenated firing log plus the drained stats.
struct StreamRun {
  std::string firing_log;
  std::uint64_t boot_pack = 0;
  std::uint64_t stream_pack = 0;
  serve::ServerStats stats;
};
[[nodiscard]] StreamRun run_parity_stream(CaseContext& ctx,
                                          const std::vector<spam::StreamTickSpec>& schedule,
                                          std::size_t swap_after_tick = 0) {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kParitySrc));
  auto rb = serve::SharedRuleBase::compile(std::move(program));

  serve::ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  serve::Server server(rb, options);

  StreamRun run;
  run.boot_pack = server.active_pack();
  serve::StreamHandle stream = server.open_stream("bench");
  if (!stream.admitted()) {
    ctx.fail("stream shed at open");
    run.stats = server.drain();
    return run;
  }
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    auto ticket = stream.tick(parity_tick(schedule[t]));
    if (!ticket.admitted()) {
      ctx.fail("tick " + std::to_string(t) + " shed in a closed loop");
      break;
    }
    const serve::TickReport report = ticket.report.get();
    if (report.status != serve::SceneStatus::Completed) {
      ctx.fail("tick " + std::to_string(t) + " did not complete: " + report.error);
      break;
    }
    if (swap_after_tick != 0 && t == swap_after_tick) {
      // Identical rules under a new version: the gate's semantic diff is
      // empty, so it must accept, and the swap must not disturb the stream.
      serve::PackCandidate candidate;
      candidate.program = std::make_shared<const ops5::Program>(
          ops5::parse_program(std::string("(pack streaming 2)\n") + kParitySrc));
      const serve::LoadResult load = server.load_pack(candidate);
      if (!load.activated) ctx.fail("mid-stream pack swap did not activate");
    }
  }
  const serve::StreamReport report = stream.close().get();
  if (report.status != serve::SceneStatus::Completed) {
    ctx.fail("stream did not complete: " + report.error);
  }
  run.firing_log = without_session_prefix(report.firing_log);
  run.stream_pack = report.pack;
  run.stats = server.drain();

  const auto violations = obs::validate_serve_rollup(run.stats.to_json());
  for (const auto& v : violations) ctx.fail("serve rollup schema: " + v);
  return run;
}

}  // namespace

PSMSYS_BENCH_CASE(streaming_flatness, "streaming",
                  "Streaming sessions: per-tick delta-match cost stays flat as WM grows") {
  auto& os = ctx.out();

  spam::StreamScheduleConfig config;
  config.ticks = 64;                        // acceptance floor: >= 50 ticks
  config.items = config.ticks * 8;          // even pacing: ~8 arrivals/tick
  config.burstiness = 0.0;
  config.retract_fraction = 0.12;
  config.seed = 0x57f1a7ULL;
  const auto schedule = spam::make_stream_schedule(config);

  auto rb = serve::SharedRuleBase::compile(
      std::make_shared<const ops5::Program>(ops5::parse_program(kRegionSrc)));
  serve::ServerOptions options;
  options.workers = 1;
  options.base_init = [](ops5::Engine& engine) {
    engine.make_wme("params", {{"mode", ops5::Value(0.0)}});
    engine.make_wme("params", {{"mode", ops5::Value(1.0)}});
  };
  serve::Server server(rb, options);

  serve::StreamHandle stream = server.open_stream("flatness");
  if (!stream.admitted()) ctx.fail("stream shed at open");

  std::vector<serve::TickReport> ticks;
  ticks.reserve(schedule.size());
  for (std::size_t t = 0; t < schedule.size() && stream.admitted(); ++t) {
    auto ticket = stream.tick(region_tick(schedule[t]));
    if (!ticket.admitted()) {
      ctx.fail("tick " + std::to_string(t) + " shed in a closed loop");
      break;
    }
    ticks.push_back(ticket.report.get());
    if (ticks.back().status != serve::SceneStatus::Completed) {
      ctx.fail("tick " + std::to_string(t) + " did not complete: " + ticks.back().error);
      break;
    }
  }
  const serve::StreamReport report = stream.admitted() ? stream.close().get()
                                                       : serve::StreamReport{};
  const serve::ServerStats stats = server.drain();

  const auto violations = obs::validate_serve_rollup(stats.to_json());
  for (const auto& v : violations) ctx.fail("serve rollup schema: " + v);
  if (ticks.size() != schedule.size()) {
    ctx.fail("closed loop lost ticks");
    return;
  }
  if (stats.streams.ticks_completed != schedule.size()) ctx.fail("tick accounting drifted");

  // The gate: deterministic match work-units of the stream's tail vs its
  // head. Windowed means absorb the +-1 arrival remainder of even dealing.
  constexpr std::size_t kWindow = 4;
  const auto window_mean = [&ticks](std::size_t begin) {
    double sum = 0.0;
    for (std::size_t i = begin; i < begin + kWindow; ++i) {
      sum += static_cast<double>(ticks[i].counters.match_cost);
    }
    return sum / static_cast<double>(kWindow);
  };
  const double head = window_mean(0);
  const double tail = window_mean(ticks.size() - kWindow);
  const double ratio = head == 0.0 ? 0.0 : tail / head;
  if (head == 0.0) ctx.fail("first ticks did no match work");
  if (ratio > 2.0) {
    ctx.fail("steady-state match cost not flat: last-window/first-window = " +
             util::Table::fmt(ratio, 2) + " (> 2x)");
  }

  util::Table table({"tick", "arrivals", "retracts", "resident wm", "match wu", "wall us"});
  for (std::size_t t = 0; t < ticks.size(); t += 8) {
    table.add_row({util::Table::fmt(t), util::Table::fmt(schedule[t].arrivals.size()),
                   util::Table::fmt(schedule[t].retractions.size()),
                   util::Table::fmt(ticks[t].wm_size),
                   util::Table::fmt(static_cast<double>(ticks[t].counters.match_cost), 0),
                   util::Table::fmt(static_cast<double>(ticks[t].service_ns) / 1e3, 1)});
  }
  table.print(os, "one stream, 1 worker; resident WM grows, per-tick match cost does not");
  ctx.table("streaming_flatness", table);

  const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
  ctx.metric("ticks", static_cast<double>(stats.streams.ticks_completed));
  ctx.metric("flatness_ratio", ratio);
  ctx.metric("peak_resident_wm", static_cast<double>(stats.streams.peak_resident_wm));
  ctx.metric("wmes_streamed", static_cast<double>(stats.streams.wmes_streamed));
  ctx.metric("tick_p50_ns", static_cast<double>(stats.streams.tick_latency.p50_ns));
  ctx.metric("tick_p99_ns", static_cast<double>(stats.streams.tick_latency.p99_ns));
  ctx.metric("ticks_per_sec", stats.streams.ticks_per_sec);
  ctx.metric("deltas_per_sec",
             wall_s == 0.0 ? 0.0 : static_cast<double>(stats.streams.wmes_streamed) / wall_s);
  ctx.metric("stream_open_ns", static_cast<double>(report.open_ns));
  ctx.note("flatness is gated on deterministic match work-units (host-load "
           "immune); wall-clock tick latency is reported, not gated");
  ctx.note("classified regions fail the ^stage alpha constant test, so they "
           "leave every alpha memory: tick cost tracks the delta, not the WM");
}

PSMSYS_BENCH_CASE(streaming_determinism, "streaming",
                  "Streaming sessions: byte-identical logs across a mid-stream pack swap") {
  auto& os = ctx.out();

  spam::StreamScheduleConfig config;
  config.ticks = 24;
  config.items = config.ticks * 6;
  config.burstiness = 0.4;
  config.retract_fraction = 0.15;
  config.seed = 0xd37e2ULL;
  const auto schedule = spam::make_stream_schedule(config);

  util::Table table({"run", "ticks", "log bytes", "identical"});
  const StreamRun baseline = run_parity_stream(ctx, schedule);
  table.add_row({"no swap", util::Table::fmt(schedule.size()),
                 util::Table::fmt(baseline.firing_log.size()), "baseline"});
  if (baseline.firing_log.empty()) ctx.fail("baseline stream produced no firings");

  // Mid-stream hot swap: the server activates a new (identical-rules) pack
  // while the stream is live; the stream must finish on its dequeue-time pack
  // with a byte-identical log.
  const StreamRun swapped = run_parity_stream(ctx, schedule, schedule.size() / 2);
  const bool swap_same = swapped.firing_log == baseline.firing_log;
  if (!swap_same) ctx.fail("firing log diverged across a mid-stream pack swap");
  if (swapped.stats.pack_swaps != 1) ctx.fail("expected exactly one pack swap");
  if (swapped.stream_pack != swapped.boot_pack) {
    ctx.fail("stream migrated off its dequeue-time pack mid-flight");
  }
  table.add_row({"mid-stream swap", util::Table::fmt(schedule.size()),
                 util::Table::fmt(swapped.firing_log.size()), swap_same ? "yes" : "NO"});

  table.print(os, "same delta schedule; logs compared byte-for-byte after prefix strip");
  ctx.table("streaming_determinism", table);
  ctx.metric("ticks", static_cast<double>(schedule.size()));
  ctx.metric("log_bytes", static_cast<double>(baseline.firing_log.size()));
  ctx.metric("pack_swaps", static_cast<double>(swapped.stats.pack_swaps));
  ctx.note("dequeue-time pack binding: the swap affects only later dequeues, "
           "so a live stream's rule base is immutable for its whole lifetime");
}

}  // namespace psmsys::bench
