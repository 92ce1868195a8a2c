#pragma once

// Streaming scenes (DESIGN.md §16): the client-facing types of the stream
// half of the serve API.
//
// A stream is a long-lived scene whose working memory arrives as *ticks* —
// batches of WME adds/retracts submitted over time. The server holds the
// stream's working memory resident on one engine context between ticks, runs
// incremental match + firing to quiescence per tick, and rolls everything
// back only when the stream closes, so a recycled context is bit-identical
// to fresh. One-shot submission is the degenerate case: Server::submit() is
// a thin wrapper over a one-tick, pre-closed stream, so admission, shedding,
// deadlines, pack binding, and the wall-clock budget have exactly one code
// path.

#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "serve/session.hpp"
#include "util/counters.hpp"

namespace psmsys::serve {

class Server;
struct StreamState;  // internal (server.cpp); handles hold it by shared_ptr

using StreamId = SceneId;  ///< streams share the scene id space

/// Everything a client learns about one tick of a stream. Mirrors
/// SceneReport at tick granularity, plus the resident working-set gauges
/// sampled after the tick quiesced.
struct TickReport {
  StreamId stream = 0;
  std::uint64_t tick = 0;  ///< sequence number within the stream (0-based)
  std::string label;
  SceneStatus status = SceneStatus::Completed;
  RejectReason reject = RejectReason::None;
  std::uint32_t attempts = 0;
  std::string error;            ///< last failure cause (non-Completed)
  util::WorkCounters counters;  ///< successful attempt's engine deltas
  std::string firing_log;       ///< tick's session-prefixed watch lines (opt-in)
  std::uint64_t wm_size = 0;      ///< resident WMEs after the tick
  std::uint64_t live_tokens = 0;  ///< resident beta tokens after the tick (OBS)
  std::int64_t queued_ns = 0;     ///< tick submit -> tick start
  std::int64_t service_ns = 0;    ///< tick start -> tick done
  std::int64_t latency_ns = 0;    ///< tick submit -> tick done
};

/// Outcome of StreamHandle::tick(). Admitted ticks resolve through `report`
/// exactly once; shed ticks carry the reason and no future.
struct SubmitTickResult {
  std::uint64_t tick = 0;
  RejectReason rejected = RejectReason::None;
  std::future<TickReport> report;  ///< valid only when admitted()

  [[nodiscard]] bool admitted() const noexcept { return rejected == RejectReason::None; }
};

/// Terminal rollup of one stream, resolved when the stream closes (or the
/// server drains it, or a tick fails terminally).
struct StreamReport {
  StreamId stream = 0;
  std::string label;
  SceneStatus status = SceneStatus::Completed;
  std::string error;  ///< terminal failure cause (non-Completed)
  std::uint64_t pack = 0;  ///< pack bound at dequeue; the stream finished on it
  std::uint64_t ticks = 0;            ///< ticks executed (completed + failed)
  std::uint64_t ticks_completed = 0;
  std::uint64_t tick_retries = 0;     ///< extra attempts beyond each tick's first
  std::uint64_t wmes_streamed = 0;    ///< WME adds over all completed ticks
  std::uint64_t peak_wm = 0;          ///< peak resident WMEs across ticks
  std::string firing_log;             ///< concatenated completed-tick logs (opt-in)
  std::int64_t open_ns = 0;           ///< open -> terminal
  bool drained = false;  ///< server drain force-closed the stream
};

/// Client handle to one stream. Cheap to move; must not outlive the server.
/// tick() and close() are safe to call from one client thread at a time
/// (per-handle; different handles are independent).
class StreamHandle {
 public:
  StreamHandle() = default;

  [[nodiscard]] StreamId id() const noexcept { return id_; }
  /// False when admission shed the stream at open (see rejected()).
  [[nodiscard]] bool admitted() const noexcept { return rejected_ == RejectReason::None; }
  [[nodiscard]] RejectReason rejected() const noexcept { return rejected_; }

  /// Submit one tick. Sheds (without blocking) when the stream's bounded
  /// tick queue is full, the stream is closed or dead, or the server is
  /// draining.
  [[nodiscard]] SubmitTickResult tick(SceneJob job);

  /// No more ticks: the worker finishes everything queued, rolls the
  /// stream's working memory back, and resolves the report. Idempotent.
  [[nodiscard]] std::future<StreamReport> close();

 private:
  friend class Server;

  Server* server_ = nullptr;
  std::shared_ptr<StreamState> state_;
  StreamId id_ = 0;
  RejectReason rejected_ = RejectReason::None;
  std::future<StreamReport> report_;
};

}  // namespace psmsys::serve
