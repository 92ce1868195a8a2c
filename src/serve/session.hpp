#pragma once

// Sessions: the per-scene half of the serve-time engine split (DESIGN.md §14).
//
// An EngineContext is a resident engine (program + base working memory) owned
// by one server worker; a Session is the lightweight per-scene execution over
// a context. Every scene and every stream ALWAYS ends with the context back
// at its base working memory, exactly as a fresh context holds it (WMEs,
// timetags, recency): a one-shot scene runs under the engine's undo log and
// is rolled back after its results are collected, and a stream's close
// reloads the base. That discipline is what makes sessions isolated: a
// scene's firing log depends only on the rule base, the base WM, and its own
// injected WMEs — never on which context ran it or what ran before it — and
// a quarantined or aborted scene provably cannot leak state into later ones.
//
// A tick is the unit of reporting: Session::run_tick() fills one SceneReport
// and the server completes it (tick number, timings), for a stream's tick
// and for a one-shot scene alike (DESIGN.md §16.2).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ops5/engine.hpp"
#include "psm/faults.hpp"
#include "psm/task.hpp"
#include "serve/rulebase.hpp"
#include "util/counters.hpp"

namespace psmsys::obs {
class Tracer;
}

namespace psmsys::serve {

using SceneId = std::uint64_t;

/// A unit of server work: one scene interpreted over the shared rule base.
struct SceneJob {
  std::string label;
  /// Adds the scene's WMEs to the session engine (the paper's "task is just
  /// a working memory element" applied at scene granularity).
  std::function<void(ops5::Engine&)> inject;
  /// Optional: read results out of working memory after the scene quiesces,
  /// before the session's WM effects are rolled back.
  std::function<void(ops5::Engine&)> collect;
};

/// Terminal state of an admitted (or shed) scene.
enum class SceneStatus : std::uint8_t {
  Completed,    ///< quiesced within its deadline; results collected
  Rejected,     ///< shed at admission (see RejectReason); never executed
  Quarantined,  ///< failed/overran max_attempts times; rolled back each time
  Aborted,      ///< ran past its wall-clock budget; rolled back
};

/// Why admission shed a scene or a stream tick (SceneStatus::Rejected).
enum class RejectReason : std::uint8_t {
  None,          ///< not rejected
  QueueFull,     ///< bounded queue at capacity — backpressure, not OOM
  Draining,      ///< server is draining; no new work accepted
  Stopped,       ///< server already drained and stopped
  StreamClosed,  ///< tick submitted to a closed or terminally failed stream
};

[[nodiscard]] const char* to_string(SceneStatus status) noexcept;
[[nodiscard]] const char* to_string(RejectReason reason) noexcept;

/// Everything a client learns about one tick: a stream's tick or a one-shot
/// scene, which is a one-tick stream. Session::run_tick() fills the id, the
/// label and the execution fields; the server sets `tick` and the timings,
/// which differ by flavour:
///  * a stream tick is timed from its submit to its start to its done;
///  * a one-shot scene is timed from admission to dequeue to its terminal
///    state, the rollback of its tick included.
struct SceneReport {
  SceneId scene = 0;       ///< the scene's id (a tick's: its stream's)
  std::uint64_t tick = 0;  ///< sequence number within the stream (0-based)
  std::string label;
  SceneStatus status = SceneStatus::Completed;
  RejectReason reject = RejectReason::None;
  std::uint32_t attempts = 0;     ///< execution attempts consumed
  std::string error;              ///< last failure cause (non-Completed)
  util::WorkCounters counters;    ///< successful attempt's engine deltas
  std::string firing_log;         ///< session-prefixed watch lines (opt-in)
  std::uint64_t wm_size = 0;      ///< resident WMEs after the tick
  std::uint64_t live_tokens = 0;  ///< resident beta tokens after the tick
  std::int64_t queued_ns = 0;     ///< admission -> dequeue; a tick: submit -> start
  std::int64_t service_ns = 0;    ///< dequeue -> terminal state; a tick: start -> done
  std::int64_t latency_ns = 0;    ///< admission -> terminal state; a tick: submit -> done
};

/// Per-session execution policy, shared by every session of a server.
struct SessionOptions {
  /// Recognize-act cycles of the first attempt (0 = unlimited). The
  /// deterministic runaway bound: a scene that exceeds it is rolled back and
  /// retried with the deadline doubled, then quarantined after max_attempts.
  /// The caller's wall-clock budget is polled every 64 cycles.
  std::uint64_t cycle_deadline = 0;
  std::size_t max_attempts = 2;  ///< attempts before quarantine (min 1)
  /// Capture each scene's watch-level-1 firing log into SceneReport
  /// (the byte-identity proof surface; costs a string per firing).
  bool capture_firing_log = false;
  /// Forward session-prefixed watch lines to this sink as well. The server
  /// serializes calls, so concurrent sessions never interleave mid-line.
  std::function<void(const std::string&)> trace_sink;
  /// Deterministic fault injection (tests); fails/overruns keyed by scene id.
  const psm::FaultInjector* injector = nullptr;
  /// Span timeline; each session records on its own tid lane (= scene id).
  obs::Tracer* tracer = nullptr;
};

/// One resident engine over the shared rule base: program + base working
/// memory, reused by every session its owning worker runs. Not thread-safe;
/// each server worker owns exactly one.
class EngineContext {
 public:
  EngineContext(std::shared_ptr<const SharedRuleBase> rulebase,
                const std::function<void(ops5::Engine&)>& base_init, SessionOptions options);

  [[nodiscard]] ops5::Engine& engine() noexcept { return runner_.engine(); }
  [[nodiscard]] const SessionOptions& options() const noexcept { return options_; }

 private:
  friend class Session;

  std::shared_ptr<const SharedRuleBase> rulebase_;
  SessionOptions options_;
  psm::TaskRunner runner_;
  std::string prefix_;       ///< "s<id>| " of the session in flight
  std::string firing_log_;   ///< captured lines of the session in flight
};

/// The per-scene/per-stream execution: binds a session id to a context for
/// the duration of one scene or stream. The lifecycle is begin() →
/// run_tick()* → finish(): begin() opens the stream, each run_tick()
/// executes one batch of injected WMEs to quiescence under its own undo log
/// (attempt/retry per the context's options, the failed attempt rolled back
/// each time) and KEEPS its effects resident, and finish() reloads the base
/// working memory, so the context equals a fresh one. run() is the one-shot
/// wrapper: begin + one discarded tick + finish, so batch scenes and streams
/// share one execution code path.
class Session {
 public:
  Session(SceneId id, EngineContext& context) : id_(id), context_(context) {}

  [[nodiscard]] SceneId id() const noexcept { return id_; }

  /// Execute the scene: one discarded tick between begin() and finish(). The
  /// context is back at its base working memory when this returns, whatever
  /// the outcome. `aborted` (may be empty) is polled between cycle slices
  /// for the wall-clock budget.
  [[nodiscard]] SceneReport run(const SceneJob& job, const std::function<bool()>& aborted);

  /// Bind the session to the context and open the stream.
  void begin();

  /// Execute one tick inside begin()/finish(). On Completed the report
  /// carries the resident gauges after the tick, and the tick's WM effects
  /// stay resident unless `discard` rolls them back once its results are
  /// collected (a one-shot scene's tick, which leaves the close nothing to
  /// reload). On Quarantined/Aborted the engine is back where the tick began
  /// (earlier ticks' effects survive) and the caller should treat the stream
  /// as terminally failed. The report's tick number and timings are left
  /// for the caller.
  [[nodiscard]] SceneReport run_tick(const SceneJob& job, const std::function<bool()>& aborted,
                                     bool discard = false);

  /// Close the stream and release the context: if a tick kept its effects,
  /// the base working memory is reloaded, so working memory, timetags and
  /// recency equal a fresh context's.
  void finish();

 private:
  SceneId id_;
  EngineContext& context_;
};

}  // namespace psmsys::serve
