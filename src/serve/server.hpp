#pragma once

// The multi-session interpretation server (DESIGN.md §14, §15).
//
// One SharedRuleBase, a fixed pool of worker-owned EngineContexts, and a
// bounded admission queue in front. The robustness surface:
//
//  * Admission control — submit() never blocks and never grows memory
//    without bound: a full queue (or a draining/stopped server) sheds the
//    scene with a typed RejectReason instead.
//  * Runaway containment — per-session cycle deadlines (deterministic,
//    retry-then-quarantine) plus a wall-clock budget per tick, which the
//    tick checks against its own start time between cycle slices (no
//    watchdog thread); both paths roll the session's engine back.
//  * Fault isolation — every tick executes under its own undo log, a
//    one-shot scene is always rolled back after collection, and a stream's
//    close reloads the base working memory, so faulted/poisoned scenes
//    cannot perturb healthy ones (their firing logs stay byte-identical).
//  * Graceful drain — drain() stops admission, finishes everything already
//    admitted, force-closes open streams after their queued ticks, joins the
//    pool, and rolls per-session metrics up into a schema-versioned
//    server-level JSON document (p50/p99 scene latency, scenes/sec,
//    exactly-once accounting, a "streams" section for tick metrics).
//  * Streaming sessions (§16) — open_stream() admits a long-lived scene
//    whose WM arrives as ticks; the worker holds the stream's working memory
//    resident between ticks (incremental match per tick, a base reload at
//    close) and one-shot submit() is a one-tick stream over the same path,
//    with the same SubmitResult and the same SceneReport per tick.
//  * Versioned hot-reload (§15) — stage_pack() compiles a candidate rule
//    pack and runs the static admission pipeline (lint, rete_static,
//    interference recheck, AN010-AN013 semantic diff) as a gate;
//    activate_pack() atomically points new scenes at the accepted pack while
//    in-flight scenes finish on the pack they were dequeued with;
//    rollback_pack() re-activates the previously live pack. Workers bind a
//    scene to the active pack at dequeue time and lazily rebuild their
//    resident context outside the lock when their generation is stale, so a
//    swap never blocks the pool. Each pack has one registry record (its
//    PackInfo, verdict and rule base), found by its dense id. admin_talk()
//    exposes the pack list, verdicts, swap/rollback, stats, and drain as a
//    tiny console surface.
//
// Mutex discipline is machine-checked: all shared state is GUARDED_BY(mu_)
// via clang -Wthread-safety over the annotated util::Mutex wrapper.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/admission.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/rulebase.hpp"
#include "serve/session.hpp"
#include "serve/stream.hpp"
#include "util/thread_annotations.hpp"

namespace psmsys::serve {

struct ServerOptions {
  /// Worker threads == resident engine contexts. Scenes multiplex over them.
  std::size_t workers = 4;
  /// Bounded admission queue (scenes admitted but not yet executing).
  std::size_t queue_capacity = 64;
  /// Loads the base working memory into every context at startup — and into
  /// rebuilt contexts after a pack swap, possibly from several worker threads
  /// at once, so it must be safe to call concurrently on distinct engines.
  std::function<void(ops5::Engine&)> base_init;
  /// Per-session execution policy (deadlines, retries, capture, injection).
  SessionOptions session;
  /// Wall-clock budget per scene — per TICK for streams, so an idle open
  /// stream never trips it (0 = off). It starts when the tick starts and
  /// covers the tick's retries; the tick compares the clock with it every 64
  /// cycles and, once over, rolls back and ends Aborted. With no budget a
  /// tick runs unsliced.
  std::chrono::milliseconds watchdog_budget{0};

  /// The live independence certificate that stage_pack()'s admission gate
  /// (always the default, non-strict one) re-establishes against every
  /// candidate (nullptr disables the interference section). Must outlive the
  /// server.
  const analysis::DecompositionSpec* admission_spec = nullptr;
  /// Seed / output class names for the gate's linter (see analysis::PackInput).
  std::optional<std::vector<std::string>> admission_seeds;
  std::optional<std::vector<std::string>> admission_outputs;
};

/// A candidate rule pack for hot-reload. Its identity is the program's
/// `(pack name version)` metadata ("pack" when absent), and its sessions run
/// with the engine options of the pack active when it is staged.
struct PackCandidate {
  std::shared_ptr<const ops5::Program> program;  ///< frozen
  /// Must outlive the server (nullptr = no externals).
  const ops5::ExternalRegistry* externals = nullptr;
};

enum class PackState : std::uint8_t {
  Active,    ///< new scenes bind to this pack
  Staged,    ///< admitted by the gate, awaiting activate_pack()
  Retired,   ///< superseded; may still be finishing in-flight scenes
  Rejected,  ///< failed the gate; never compiled into the server
};

[[nodiscard]] const char* to_string(PackState state) noexcept;

/// Snapshot of one registered pack (packs(), admin channel).
struct PackInfo {
  std::uint64_t id = 0;
  std::string name;
  std::string version;
  PackState state = PackState::Staged;
  analysis::AdmissionDecision decision = analysis::AdmissionDecision::Pass;
  bool gated = false;  ///< false for the boot pack (loaded before the gate)
  std::uint64_t scenes_completed = 0;
  std::uint64_t workers_on = 0;  ///< contexts currently bound (drain gauge)
};

/// Outcome of stage_pack(); activate_pack(pack) then switches new scenes to
/// an accepted pack.
struct LoadResult {
  std::uint64_t pack = 0;  ///< registry id (also of rejected packs)
  bool accepted = false;   ///< verdict was not a reject
  analysis::AdmissionVerdict verdict;
};

/// Stream-family rollup: real streams only (one-shot submit() wrappers run
/// through the same machinery but report in the scene-level bins alone).
/// Every stream ALSO counts as one scene in the top-level bins — opened
/// streams are admitted scenes, a stream's terminal status is its scene
/// status — so the exactly-once scene accounting holds unchanged.
struct StreamStats {
  std::uint64_t opened = 0;  ///< streams admitted via open_stream()
  std::uint64_t completed = 0;
  std::uint64_t quarantined = 0;  ///< a tick exhausted its attempts
  std::uint64_t aborted = 0;      ///< a tick ran past its wall-clock budget
  std::uint64_t drained = 0;      ///< completed by a server drain force-close
  std::uint64_t ticks = 0;        ///< tick submissions (admitted + shed)
  std::uint64_t ticks_completed = 0;
  std::uint64_t ticks_failed = 0;  ///< terminal tick failures (kill the stream)
  std::uint64_t ticks_shed = 0;    ///< rejected at tick admission or abandoned
  std::uint64_t tick_retries = 0;
  std::uint64_t wmes_streamed = 0;     ///< WME adds over completed ticks
  std::uint64_t peak_resident_wm = 0;  ///< max resident WMEs across all streams
  obs::LatencySummary tick_latency;    ///< completed ticks, submit->done
  double ticks_per_sec = 0.0;          ///< completed ticks / wall
};

/// Server-level rollup of per-session metrics, produced by drain()/stats().
struct ServerStats {
  std::uint64_t workers = 0;
  std::uint64_t submitted = 0;  ///< admission attempts (admitted + rejected)
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_draining = 0;  ///< shed while draining or stopped
  std::uint64_t completed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t aborted = 0;
  std::uint64_t retries = 0;  ///< extra attempts beyond the first
  std::int64_t wall_ns = 0;
  double scenes_per_sec = 0.0;            ///< completed / wall
  obs::LatencySummary latency;            ///< completed scenes, admission->done
  obs::RunMetrics engine;                 ///< engine counters over completed scenes

  // Hot-reload accounting.
  std::uint64_t packs_loaded = 0;    ///< registry size incl. boot + rejected
  std::uint64_t packs_rejected = 0;  ///< gate rejections
  std::uint64_t pack_swaps = 0;      ///< successful activations (not rollbacks)
  std::uint64_t pack_rollbacks = 0;
  std::uint64_t active_pack = 0;     ///< id new scenes bind to
  std::vector<PackInfo> packs;       ///< registry snapshot, by id

  StreamStats streams;  ///< streaming-family accounting (real streams only)

  /// Schema-versioned rollup document (obs::validate_serve_rollup).
  [[nodiscard]] obs::json::Value to_json() const;
};

class Server {
 public:
  Server(std::shared_ptr<const SharedRuleBase> rulebase, ServerOptions options);
  /// Drains (blocking) if the server was not drained explicitly.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one scene, or shed it. Never blocks on the pool; never allocates
  /// past the bounded queue. Implemented as a one-tick, pre-closed stream,
  /// so one-shot and streaming submission share one execution code path.
  [[nodiscard]] SubmitResult submit(SceneJob job);

  /// Admit one stream, or shed it (same admission as submit(): a stream
  /// occupies one slot of the bounded queue and counts as one scene). The
  /// stream binds a worker and its pack at dequeue time and holds both until
  /// it closes — mid-stream pack swaps affect only later dequeues, so a
  /// stream always finishes on the pack it started on.
  [[nodiscard]] StreamHandle open_stream(std::string label = {});

  /// Graceful shutdown: stop admitting, execute everything already admitted,
  /// join the workers, return the final rollup. Idempotent and thread-safe;
  /// later submits shed with RejectReason::Stopped.
  ServerStats drain();

  /// Point-in-time rollup (wall = elapsed so far until drained).
  [[nodiscard]] ServerStats stats() const;

  // --- versioned hot-reload -------------------------------------------------

  /// Run the admission gate on `candidate` against the currently active pack
  /// and, when accepted, compile it into the registry as Staged. Analysis and
  /// compilation happen on the caller's thread without holding the server
  /// lock, so workers keep serving throughout. Rejected candidates are
  /// registered too (state Rejected, verdict retained) but never compiled.
  [[nodiscard]] LoadResult stage_pack(const PackCandidate& candidate);

  /// Atomically point new scenes at a Staged (or Retired) pack. In-flight
  /// scenes finish on the pack they were dequeued with; workers rebuild
  /// their contexts lazily at the next dequeue. Fails (false + reason) for
  /// unknown/rejected packs or a stopped server.
  bool activate_pack(std::uint64_t pack, std::string* error = nullptr);

  /// Re-activate the pack that was live before the last swap.
  bool rollback_pack(std::string* error = nullptr);

  /// Registry snapshot, ordered by pack id.
  [[nodiscard]] std::vector<PackInfo> packs() const;

  /// Id of the pack new scenes bind to.
  [[nodiscard]] std::uint64_t active_pack() const;

  /// Pretty-printed AdmissionVerdict JSON of a gated pack; nullopt for
  /// unknown ids, empty string for the ungated boot pack.
  [[nodiscard]] std::optional<std::string> verdict_json(std::uint64_t pack) const;

  /// Console surface (gromox console_talk-style): "help", "stats",
  /// "pack list", "pack verdict <id>", "pack swap <id>", "pack rollback",
  /// "drain". Returns the response text (never empty).
  std::string admin_talk(const std::string& line);

  [[nodiscard]] const SharedRuleBase& rulebase() const noexcept { return *rulebase_; }

 private:
  friend class StreamHandle;

  /// One registry entry: the pack's info, its verdict and its rule base.
  struct PackRecord {
    PackInfo info;
    std::string verdict_json;  ///< pretty JSON; empty for the boot pack
    std::shared_ptr<const SharedRuleBase> rulebase;  ///< null exactly for rejected packs
  };

  void worker_loop(std::size_t index);
  /// Serve one dequeued stream to its terminal state on worker `index`
  /// (also the one-shot path: submit() enqueues a one-tick closed stream).
  void run_stream(std::size_t index, const std::shared_ptr<StreamState>& stream,
                  std::uint64_t pack_id);
  /// StreamHandle backends (handles must not outlive the server).
  SubmitResult stream_tick(const std::shared_ptr<StreamState>& stream, SceneJob job);
  void stream_close(const std::shared_ptr<StreamState>& stream);
  /// Why a new scene or stream is shed right now (None = admit it); counts
  /// the rejection in the books.
  [[nodiscard]] RejectReason shed_locked() PSMSYS_REQUIRES(mu_);
  [[nodiscard]] ServerStats stats_locked() const PSMSYS_REQUIRES(mu_);
  [[nodiscard]] PackRecord* find_pack_locked(std::uint64_t id) PSMSYS_REQUIRES(mu_);
  [[nodiscard]] const PackRecord* find_pack_locked(std::uint64_t id) const
      PSMSYS_REQUIRES(mu_);
  bool activate_locked(std::uint64_t pack, bool is_rollback, std::string* error)
      PSMSYS_REQUIRES(mu_);

  std::shared_ptr<const SharedRuleBase> rulebase_;  ///< boot pack artifacts
  ServerOptions options_;
  SessionOptions session_wrapped_;  ///< options_.session with serialized sink
  std::chrono::steady_clock::time_point start_;

  mutable util::Mutex mu_;
  std::condition_variable_any work_cv_;
  /// Unit of admission: every entry is a stream (one-shot submits are
  /// one-tick pre-closed streams). A stream occupies its slot only until a
  /// worker dequeues it; from then on it lives pinned to that worker.
  std::deque<std::shared_ptr<StreamState>> queue_ PSMSYS_GUARDED_BY(mu_);
  /// Live streams drain() must force-close (workers park on a stream's own
  /// cv waiting for ticks; the drain poke is what wakes them). Entries expire
  /// as streams terminate; pruned opportunistically.
  std::vector<std::weak_ptr<StreamState>> stream_registry_ PSMSYS_GUARDED_BY(mu_);
  bool draining_ PSMSYS_GUARDED_BY(mu_) = false;
  bool stopped_ PSMSYS_GUARDED_BY(mu_) = false;
  SceneId next_scene_ PSMSYS_GUARDED_BY(mu_) = 0;

  /// The counters of the rollup, updated in place; stats_locked() fills in
  /// the derived fields (submitted, admitted, wall, rates, latencies, packs).
  /// Stream counters cover real streams only — one-shot wrappers report in
  /// the scene bins.
  ServerStats books_ PSMSYS_GUARDED_BY(mu_);
  std::vector<std::int64_t> latencies_ns_ PSMSYS_GUARDED_BY(mu_);
  std::vector<std::int64_t> tick_latencies_ns_ PSMSYS_GUARDED_BY(mu_);
  std::int64_t final_wall_ns_ PSMSYS_GUARDED_BY(mu_) = -1;

  // Pack registry (guarded by mu_). Exactly one record is Active. Ids are
  // dense from 1 and records are never removed: pack id i is packs_[i - 1].
  std::vector<PackRecord> packs_ PSMSYS_GUARDED_BY(mu_);
  std::uint64_t active_pack_id_ PSMSYS_GUARDED_BY(mu_) = 0;
  std::uint64_t rollback_pack_id_ PSMSYS_GUARDED_BY(mu_) = 0;  ///< 0 = none

  util::Mutex sink_mu_;  ///< serializes trace_sink lines across sessions
  std::vector<std::unique_ptr<EngineContext>> contexts_;  ///< worker-owned
  std::vector<std::uint64_t> context_pack_ids_;  ///< worker-owned
  std::vector<std::thread> threads_;
  std::once_flag drain_once_;
};

}  // namespace psmsys::serve
