// Streaming scenes (DESIGN.md §16): steady-state flatness of incremental
// delta-match sessions on the serve layer. One long stream (>= 50 ticks,
// even arrival pacing, sensor-revision retractions) runs against a 1-worker
// pool. The incremental-match claim: per-tick match cost tracks the *delta*,
// not the resident working memory, so the last ticks' deterministic match
// work-units must stay within 2x of the first ticks' even as resident WM
// grows monotonically. Everything printed is deterministic; perfbench's
// `stream` workload measures tick latency and throughput in host time, and
// ServeStream.MidStreamPackSwapLeavesTheStreamOnItsPack checks that a
// mid-stream pack swap leaves the stream's firing log byte-identical.
//
// The drained rollup is validated against the serve schema
// (obs::validate_serve_rollup) before it is reported; a violation fails the
// case and the harness exits nonzero.

#include <memory>
#include <stdexcept>
#include <string>
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
  if (stream.admitted()) (void)stream.close().get();
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

  util::Table table({"tick", "arrivals", "retracts", "resident wm", "match wu"});
  for (std::size_t t = 0; t < ticks.size(); t += 8) {
    table.add_row({util::Table::fmt(t), util::Table::fmt(schedule[t].arrivals.size()),
                   util::Table::fmt(schedule[t].retractions.size()),
                   util::Table::fmt(ticks[t].wm_size),
                   util::Table::fmt(static_cast<double>(ticks[t].counters.match_cost), 0)});
  }
  table.print(os, "one stream, 1 worker; resident WM grows, per-tick match cost does not");
  ctx.table("streaming_flatness", table);

  ctx.metric("ticks", static_cast<double>(stats.streams.ticks_completed));
  ctx.metric("flatness_ratio", ratio);
  ctx.metric("peak_resident_wm", static_cast<double>(stats.streams.peak_resident_wm));
  ctx.metric("wmes_streamed", static_cast<double>(stats.streams.wmes_streamed));
  ctx.note("flatness is gated on deterministic match work-units (host-load "
           "immune); perfbench's stream workload times the ticks");
  ctx.note("classified regions fail the ^stage alpha constant test, so they "
           "leave every alpha memory: tick cost tracks the delta, not the WM");
}

}  // namespace psmsys::bench
