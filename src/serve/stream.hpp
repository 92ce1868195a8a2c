#pragma once

// Streaming scenes (DESIGN.md §16): the client-facing types of the stream
// half of the serve API.
//
// A stream is a long-lived scene whose working memory arrives as *ticks* —
// batches of WME adds/retracts submitted over time. The server holds the
// stream's working memory resident on one engine context between ticks, runs
// incremental match + firing to quiescence per tick, and reloads the base
// working memory when the stream closes, so a recycled context equals a
// fresh one. One-shot submission is the degenerate case: Server::submit() is
// a thin wrapper over a one-tick, pre-closed stream, so admission, shedding,
// deadlines, pack binding, and the wall-clock budget have exactly one code
// path, and a tick and a one-shot scene share one report (SceneReport) and
// one submit result (SubmitResult).

#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "serve/session.hpp"

namespace psmsys::serve {

class Server;
struct StreamState;  // internal (server.cpp); handles hold it by shared_ptr

using StreamId = SceneId;  ///< streams share the scene id space

/// A stream tick's report is a SceneReport: its `scene` is the stream's id
/// and its timings run from the tick's submit to its start to its done.
using TickReport = SceneReport;

/// Outcome of Server::submit() and StreamHandle::tick(). Admitted work
/// resolves through `report` exactly once; shed work carries the reason and
/// no future.
struct SubmitResult {
  SceneId scene = 0;       ///< the scene's id (a tick's: its stream's)
  std::uint64_t tick = 0;  ///< sequence number within the stream (0 for submit())
  RejectReason rejected = RejectReason::None;
  std::future<SceneReport> report;  ///< valid only when admitted()

  [[nodiscard]] bool admitted() const noexcept { return rejected == RejectReason::None; }
};

using SubmitTickResult = SubmitResult;

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
  [[nodiscard]] SubmitResult tick(SceneJob job);

  /// No more ticks: the worker finishes everything queued, returns the
  /// context to its base working memory, and resolves the report.
  /// Idempotent.
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
