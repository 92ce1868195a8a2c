#include "serve/session.hpp"

#include <chrono>
#include <exception>

#include "obs/trace.hpp"

namespace psmsys::serve {

const char* to_string(SceneStatus status) noexcept {
  switch (status) {
    case SceneStatus::Completed: return "completed";
    case SceneStatus::Rejected: return "rejected";
    case SceneStatus::Quarantined: return "quarantined";
    case SceneStatus::Aborted: return "aborted";
  }
  return "?";
}

const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::Draining: return "draining";
    case RejectReason::Stopped: return "stopped";
    case RejectReason::StreamClosed: return "stream_closed";
  }
  return "?";
}

/// Cycles between polls of the wall-clock budget while a scene runs.
constexpr std::uint64_t kAbortCheckEvery = 64;

EngineContext::EngineContext(std::shared_ptr<const SharedRuleBase> rulebase,
                             const std::function<void(ops5::Engine&)>& base_init,
                             SessionOptions options)
    : rulebase_(std::move(rulebase)),
      options_(std::move(options)),
      runner_(psm::TaskProcessFactory{[this] { return rulebase_->make_engine(); }, base_init}) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  if (options_.capture_firing_log || options_.trace_sink) {
    // Watch level 1 — one line per firing, the byte-identity proof surface.
    // Every line carries the session prefix, so a shared sink fed by many
    // contexts still yields separable per-session streams.
    runner_.engine().set_watch(1, [this](const std::string& line) {
      if (options_.capture_firing_log) {
        firing_log_ += prefix_;
        firing_log_ += line;
        firing_log_ += '\n';
      }
      if (options_.trace_sink) options_.trace_sink(prefix_ + line);
    });
  }
}

void Session::begin() {
  const SessionOptions& options = context_.options_;
  context_.prefix_ = "s" + std::to_string(id_) + "| ";
  if (options.tracer != nullptr) {
    // One tid lane per session: concurrent sessions never share a lane, so
    // their spans cannot interleave within one track of the timeline.
    context_.engine().set_tracer(options.tracer, static_cast<std::uint32_t>(id_));
  }
  context_.runner_.begin_stream();
}

SceneReport Session::run_tick(const SceneJob& job, const std::function<bool()>& aborted) {
  const SessionOptions& options = context_.options_;
  SceneReport out;
  out.scene = id_;
  out.label = job.label;
  const psm::Task task{id_, job.label, job.inject};
  psm::AttemptOptions attempt{.cycle_deadline = options.cycle_deadline,
                              .cancel_check_every = kAbortCheckEvery,
                              .injector = options.injector};
  for (; attempt.number <= options.max_attempts; ++attempt.number) {
    context_.firing_log_.clear();
    out.attempts = attempt.number;
    try {
      // Inside the stream journal: a failed attempt rolls back to the
      // tick's checkpoint, and earlier ticks' resident WM survives.
      psm::TaskMeasurement m = context_.runner_.attempt(task, attempt, aborted, job.collect);
      out.status = SceneStatus::Completed;
      out.error.clear();  // the cause of a failure only; a retry just completed
      out.counters = m.counters;
      out.firing_log = std::move(context_.firing_log_);
      out.wm_size = context_.engine().wm_size();
      out.live_tokens = context_.engine().network().live_tokens();
      break;
    } catch (const psm::TaskAborted&) {
      // Wall-clock budget abort: terminal, no retry — the budget that
      // tripped is host time, so a retry would just burn it again.
      out.status = SceneStatus::Aborted;
      out.error = "aborted by watchdog";
      break;
    } catch (const std::exception& e) {
      // Transient fault or cycle-deadline overrun: rolled back to the tick
      // checkpoint already; retry with a grown deadline until attempts run
      // out.
      out.error = e.what();
      out.status = SceneStatus::Quarantined;
    } catch (...) {
      out.error = "unknown error";
      out.status = SceneStatus::Quarantined;
    }
  }
  return out;
}

void Session::finish() {
  context_.runner_.end_stream();
  context_.firing_log_.clear();
  context_.prefix_.clear();
}

SceneReport Session::run(const SceneJob& job, const std::function<bool()>& aborted) {
  begin();
  const auto begin_ts = obs::Tracer::Clock::now();
  SceneReport report = run_tick(job, aborted);
  const auto end_ts = obs::Tracer::Clock::now();
  finish();

  if (obs::Tracer* tracer = context_.options_.tracer) {
    obs::json::Object args;
    args.emplace_back("status", obs::json::Value(std::string(to_string(report.status))));
    args.emplace_back("attempts", obs::json::Value(static_cast<std::uint64_t>(report.attempts)));
    tracer->record_span("scene " + std::to_string(id_), "scene", begin_ts, end_ts,
                        static_cast<std::uint32_t>(id_), std::move(args));
  }
  return report;
}

}  // namespace psmsys::serve
