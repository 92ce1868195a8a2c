#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/bench_schema.hpp"
#include "obs/trace.hpp"

namespace psmsys::serve {

/// Shared state of one admitted stream: the handoff surface between the
/// client's StreamHandle (enqueues ticks, closes) and the worker the stream
/// is pinned to (dequeues ticks, resolves reports). One-shot submit() builds
/// the degenerate form — a single pre-enqueued tick with closed already set,
/// whose promise the client waits on — so the worker-side protocol below is
/// the only execution path.
///
/// Lock ordering: a thread holding the server's mu_ may acquire mu
/// (stream_tick does, to queue and count a tick at once); never the reverse.
struct StreamState {
  SceneId id = 0;
  std::string label;
  bool oneshot = false;
  std::chrono::steady_clock::time_point opened;

  struct PendingTick {
    std::uint64_t seq = 0;
    SceneJob job;
    std::promise<SceneReport> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  util::Mutex mu;
  std::condition_variable_any cv;  ///< worker parks here between ticks
  std::deque<PendingTick> ticks PSMSYS_GUARDED_BY(mu);
  std::uint64_t next_seq PSMSYS_GUARDED_BY(mu) = 0;
  bool closed PSMSYS_GUARDED_BY(mu) = false;       ///< client closed
  bool force_close PSMSYS_GUARDED_BY(mu) = false;  ///< server drain poke
  bool dead PSMSYS_GUARDED_BY(mu) = false;         ///< worker finished it

  std::promise<StreamReport> close_promise;  ///< resolved at terminal state
};

namespace {

/// Ticks a stream may hold queued behind the one its worker runs; the next
/// is shed with RejectReason::QueueFull (DESIGN §16.2).
constexpr std::size_t kStreamTickCapacity = 16;

std::int64_t ns_between(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::string pack_label(const std::string& name, const std::string& version) {
  return version.empty() ? name : name + "@" + version;
}

}  // namespace

const char* to_string(PackState state) noexcept {
  switch (state) {
    case PackState::Active:
      return "active";
    case PackState::Staged:
      return "staged";
    case PackState::Retired:
      return "retired";
    case PackState::Rejected:
      return "rejected";
  }
  return "unknown";
}

obs::json::Value ServerStats::to_json() const {
  obs::json::Object o;
  o.emplace_back("schema_version", obs::json::Value(obs::kServeRollupSchemaVersion));
  o.emplace_back("kind", obs::json::Value(std::string("serve_rollup")));
  const auto put = [&o](const char* key, std::uint64_t v) {
    o.emplace_back(key, obs::json::Value(v));
  };
  put("workers", workers);
  put("submitted", submitted);
  put("admitted", admitted);
  {
    obs::json::Object rej;
    rej.emplace_back("queue_full", obs::json::Value(rejected_queue_full));
    rej.emplace_back("draining", obs::json::Value(rejected_draining));
    o.emplace_back("rejected", obs::json::Value(std::move(rej)));
  }
  put("completed", completed);
  put("quarantined", quarantined);
  put("aborted", aborted);
  put("retries", retries);
  {
    obs::json::Object pk;
    pk.emplace_back("loaded", obs::json::Value(packs_loaded));
    pk.emplace_back("rejected", obs::json::Value(packs_rejected));
    pk.emplace_back("swaps", obs::json::Value(pack_swaps));
    pk.emplace_back("rollbacks", obs::json::Value(pack_rollbacks));
    pk.emplace_back("active", obs::json::Value(active_pack));
    obs::json::Array per;
    per.reserve(packs.size());
    for (const auto& p : packs) {
      obs::json::Object e;
      e.emplace_back("id", obs::json::Value(p.id));
      e.emplace_back("name", obs::json::Value(p.name));
      e.emplace_back("version", obs::json::Value(p.version));
      e.emplace_back("state", obs::json::Value(std::string(to_string(p.state))));
      e.emplace_back("decision",
                     obs::json::Value(analysis::admission_decision_name(p.decision)));
      e.emplace_back("gated", obs::json::Value(p.gated));
      e.emplace_back("scenes_completed", obs::json::Value(p.scenes_completed));
      e.emplace_back("workers_on", obs::json::Value(p.workers_on));
      per.emplace_back(std::move(e));
    }
    pk.emplace_back("per_pack", obs::json::Value(std::move(per)));
    o.emplace_back("packs", obs::json::Value(std::move(pk)));
  }
  {
    obs::json::Object st;
    const auto sput = [&st](const char* key, std::uint64_t v) {
      st.emplace_back(key, obs::json::Value(v));
    };
    sput("opened", streams.opened);
    sput("completed", streams.completed);
    sput("quarantined", streams.quarantined);
    sput("aborted", streams.aborted);
    sput("drained", streams.drained);
    sput("ticks", streams.ticks);
    sput("ticks_completed", streams.ticks_completed);
    sput("ticks_failed", streams.ticks_failed);
    sput("ticks_shed", streams.ticks_shed);
    sput("tick_retries", streams.tick_retries);
    sput("wmes_streamed", streams.wmes_streamed);
    sput("peak_resident_wm", streams.peak_resident_wm);
    st.emplace_back("tick_latency_ns", streams.tick_latency.to_json());
    st.emplace_back("ticks_per_sec", obs::json::Value(streams.ticks_per_sec));
    o.emplace_back("streams", obs::json::Value(std::move(st)));
  }
  o.emplace_back("wall_ns", obs::json::Value(wall_ns));
  o.emplace_back("scenes_per_sec", obs::json::Value(scenes_per_sec));
  o.emplace_back("latency_ns", latency.to_json());
  o.emplace_back("engine", engine.to_json());
  return obs::json::Value(std::move(o));
}

Server::Server(std::shared_ptr<const SharedRuleBase> rulebase, ServerOptions options)
    : rulebase_(std::move(rulebase)), options_(std::move(options)) {
  if (rulebase_ == nullptr) throw std::invalid_argument("server needs a rule base");
  if (options_.workers == 0) options_.workers = 1;

  // Contexts share one sink but never a line: each context prefixes its
  // lines with the session id and this wrapper serializes whole lines.
  session_wrapped_ = options_.session;
  if (session_wrapped_.trace_sink) {
    session_wrapped_.trace_sink = [this, sink = options_.session.trace_sink](
                                      const std::string& line) {
      const util::MutexLock lock(sink_mu_);
      sink(line);
    };
  }

  // The boot pack: loaded before the gate existed for this server, so it is
  // registered ungated (verdict_json empty) and immediately Active.
  {
    const util::MutexLock lock(mu_);
    PackRecord& boot = packs_.emplace_back();
    boot.info.id = active_pack_id_ = 1;
    boot.info.name = rulebase_->program().pack_name().empty() ? "boot"
                                                              : rulebase_->program().pack_name();
    boot.info.version = rulebase_->program().pack_version();
    boot.info.state = PackState::Active;
    boot.info.workers_on = options_.workers;
    boot.rulebase = rulebase_;
    books_.engine.task_processes = options_.workers;
  }

  contexts_.reserve(options_.workers);
  context_pack_ids_.assign(options_.workers, 1);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    // Built serially before any thread starts: engine compilation over the
    // shared artifacts plus one base_init per context, exactly once.
    contexts_.push_back(
        std::make_unique<EngineContext>(rulebase_, options_.base_init, session_wrapped_));
  }

  start_ = std::chrono::steady_clock::now();

  threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Server::~Server() { drain(); }

SubmitResult Server::submit(SceneJob job) {
  SubmitResult result;
  // One-shot = one-tick pre-closed stream: the worker-side stream protocol
  // (run_stream) is the single execution path for both submission flavors.
  auto stream = std::make_shared<StreamState>();
  stream->oneshot = true;
  stream->label = job.label;
  const auto now = std::chrono::steady_clock::now();
  stream->opened = now;
  std::future<SceneReport> report;
  {
    const util::MutexLock lock(stream->mu);
    StreamState::PendingTick& t = stream->ticks.emplace_back();
    t.seq = stream->next_seq++;
    t.job = std::move(job);
    t.enqueued = now;
    report = t.promise.get_future();
    stream->closed = true;
  }
  {
    const util::MutexLock lock(mu_);
    result.scene = stream->id = next_scene_++;
    result.rejected = shed_locked();
    if (result.rejected != RejectReason::None) return result;
    result.report = std::move(report);
    queue_.push_back(std::move(stream));
  }
  work_cv_.notify_one();
  return result;
}

StreamHandle Server::open_stream(std::string label) {
  StreamHandle handle;
  handle.server_ = this;
  auto stream = std::make_shared<StreamState>();
  stream->label = std::move(label);
  stream->opened = std::chrono::steady_clock::now();
  handle.report_ = stream->close_promise.get_future();
  {
    const util::MutexLock lock(mu_);
    handle.id_ = stream->id = next_scene_++;
    handle.rejected_ = shed_locked();
    if (handle.rejected_ == RejectReason::None) {
      ++books_.streams.opened;
      std::erase_if(stream_registry_,
                    [](const std::weak_ptr<StreamState>& w) { return w.expired(); });
      stream_registry_.push_back(stream);
      queue_.push_back(stream);
      handle.state_ = std::move(stream);
    }
  }
  if (handle.state_ == nullptr) {
    // Shed at open: resolve the terminal report here so close() never hangs.
    StreamReport report;
    report.stream = handle.id_;
    report.label = stream->label;
    report.status = SceneStatus::Rejected;
    report.error = to_string(handle.rejected_);
    stream->close_promise.set_value(std::move(report));
    return handle;
  }
  work_cv_.notify_one();
  return handle;
}

SubmitResult Server::stream_tick(const std::shared_ptr<StreamState>& stream, SceneJob job) {
  SubmitResult result;
  result.scene = stream->id;
  {
    // The tick is counted in the same critical section that queues it: the
    // worker books its outcome under mu_, so no rollup can see the outcome
    // of a tick that `ticks` does not count yet.
    const util::MutexLock lock(mu_);
    const util::MutexLock stream_lock(stream->mu);
    result.tick = stream->next_seq++;
    if (stream->dead || stream->closed || stream->force_close) {
      result.rejected = RejectReason::StreamClosed;
    } else if (draining_ || stopped_) {
      result.rejected = RejectReason::Draining;
    } else if (stream->ticks.size() >= kStreamTickCapacity) {
      result.rejected = RejectReason::QueueFull;
    } else {
      StreamState::PendingTick& t = stream->ticks.emplace_back();
      t.seq = result.tick;
      t.job = std::move(job);
      result.report = t.promise.get_future();
      t.enqueued = std::chrono::steady_clock::now();
    }
    ++books_.streams.ticks;
    if (result.rejected != RejectReason::None) ++books_.streams.ticks_shed;
  }
  stream->cv.notify_all();
  return result;
}

void Server::stream_close(const std::shared_ptr<StreamState>& stream) {
  {
    const util::MutexLock lock(stream->mu);
    stream->closed = true;
  }
  stream->cv.notify_all();
}

SubmitResult StreamHandle::tick(SceneJob job) {
  if (server_ == nullptr || state_ == nullptr) {
    SubmitResult result;
    result.scene = id_;
    result.rejected = rejected_ == RejectReason::None ? RejectReason::Stopped : rejected_;
    return result;
  }
  return server_->stream_tick(state_, std::move(job));
}

std::future<StreamReport> StreamHandle::close() {
  if (server_ != nullptr && state_ != nullptr) server_->stream_close(state_);
  return std::move(report_);
}

void Server::worker_loop(std::size_t index) {
  for (;;) {
    std::shared_ptr<StreamState> stream;
    std::uint64_t my_pack = 0;
    std::shared_ptr<const SharedRuleBase> my_rulebase;
    bool rebind = false;
    {
      util::MutexLock lock(mu_);
      work_cv_.wait(lock, [this]() PSMSYS_REQUIRES(mu_) {
        return !queue_.empty() || draining_;
      });
      if (queue_.empty()) return;  // draining and nothing left: exit
      stream = std::move(queue_.front());
      queue_.pop_front();

      // Dequeue-time pack binding: the stream runs on whatever pack is
      // active NOW; a swap after this point affects only later dequeues, so
      // in-flight scenes and streams always finish on the pack they started
      // with.
      my_pack = active_pack_id_;
      rebind = context_pack_ids_[index] != my_pack;
      if (rebind) {
        if (PackRecord* old = find_pack_locked(context_pack_ids_[index])) {
          --old->info.workers_on;
        }
        PackRecord* next = find_pack_locked(my_pack);
        ++next->info.workers_on;
        my_rulebase = next->rulebase;
      }
    }

    if (rebind) {
      // Rebuild the resident context (engine compile + base_init) OUTSIDE
      // the lock: a hot swap must never stall the rest of the pool.
      contexts_[index] = std::make_unique<EngineContext>(my_rulebase, options_.base_init,
                                                         session_wrapped_);
      context_pack_ids_[index] = my_pack;
    }

    run_stream(index, stream, my_pack);
  }
}

void Server::run_stream(std::size_t index, const std::shared_ptr<StreamState>& stream,
                        std::uint64_t pack_id) {
  const auto dequeued = std::chrono::steady_clock::now();
  Session session(stream->id, *contexts_[index]);
  session.begin();
  const auto span_begin = obs::Tracer::Clock::now();

  StreamReport rollup;
  rollup.stream = stream->id;
  rollup.label = stream->label;
  rollup.pack = pack_id;
  // A one-shot scene's tick and report wait for the close and the books
  // below, so its future resolves only once stats() counts the scene.
  std::optional<StreamState::PendingTick> oneshot;
  SceneReport oneshot_report;

  util::WorkCounters stream_counters;  // sum over completed ticks
  std::vector<std::int64_t> tick_latencies;
  bool drained_by_server = false;

  for (;;) {
    StreamState::PendingTick tick;
    bool have_tick = false;
    {
      util::MutexLock lock(stream->mu);
      StreamState& st = *stream;
      stream->cv.wait(lock, [&st]() PSMSYS_REQUIRES(st.mu) {
        return !st.ticks.empty() || st.closed || st.force_close;
      });
      if (!stream->ticks.empty()) {
        tick = std::move(stream->ticks.front());
        stream->ticks.pop_front();
        have_tick = true;
      } else {
        drained_by_server = stream->force_close && !stream->closed;
      }
    }
    if (!have_tick) break;

    // The wall-clock budget covers a tick and its retries, not the stream:
    // it starts with the tick, so an idle open stream never trips it. The
    // session polls it between cycle slices; without a budget the tick runs
    // unsliced.
    const auto tick_start = std::chrono::steady_clock::now();
    std::function<bool()> over_budget;
    if (options_.watchdog_budget.count() > 0) {
      over_budget = [deadline = tick_start + options_.watchdog_budget] {
        return std::chrono::steady_clock::now() > deadline;
      };
    }
    SceneReport report = session.run_tick(tick.job, over_budget);
    const auto tick_done = std::chrono::steady_clock::now();
    report.tick = tick.seq;

    ++rollup.ticks;
    if (report.attempts > 1) rollup.tick_retries += report.attempts - 1;
    const bool ok = report.status == SceneStatus::Completed;
    if (ok) {
      ++rollup.ticks_completed;
      stream_counters += report.counters;
      rollup.wmes_streamed += report.counters.wmes_added;
      rollup.peak_wm = std::max(rollup.peak_wm, report.wm_size);
      rollup.firing_log += report.firing_log;
      tick_latencies.push_back(ns_between(tick.enqueued, tick_done));
    } else {
      // Terminal tick failure kills the stream: the failed tick is already
      // rolled back to its checkpoint, and close-time rollback below returns
      // the context to base. Isolation would otherwise be unprovable — a
      // quarantined tick's partial state must not feed later ticks.
      rollup.status = report.status;
      rollup.error = report.error;
    }

    if (stream->oneshot) {
      oneshot = std::move(tick);
      oneshot_report = std::move(report);
    } else {
      report.queued_ns = ns_between(tick.enqueued, tick_start);
      report.service_ns = ns_between(tick_start, tick_done);
      report.latency_ns = ns_between(tick.enqueued, tick_done);
      tick.promise.set_value(std::move(report));
    }
    if (!ok) break;
  }

  // One "scene" span per stream on the session's tracer lane, both
  // submission flavors: the serving window from dequeue to the last tick.
  if (obs::Tracer* tracer = options_.session.tracer) {
    const auto span_end = obs::Tracer::Clock::now();
    obs::json::Object args;
    args.emplace_back("status",
                      obs::json::Value(std::string(to_string(rollup.status))));
    // Every tick's attempts: one per tick plus its retries.
    args.emplace_back("attempts", obs::json::Value(rollup.ticks + rollup.tick_retries));
    if (!stream->oneshot) {
      args.emplace_back("ticks", obs::json::Value(rollup.ticks));
    }
    tracer->record_span("scene " + std::to_string(stream->id), "scene", span_begin,
                        span_end, static_cast<std::uint32_t>(stream->id),
                        std::move(args));
  }

  // Close-time rollback: the recycled context is bit-identical to fresh
  // (WMEs, timetags, recency) whatever the stream did or failed to do.
  session.finish();

  // Kill the stream and abandon whatever is still queued (terminal failure
  // left ticks behind; a clean close cannot, the loop drained them first).
  std::deque<StreamState::PendingTick> abandoned;
  {
    const util::MutexLock lock(stream->mu);
    stream->dead = true;
    abandoned.swap(stream->ticks);
  }
  for (StreamState::PendingTick& t : abandoned) {
    SceneReport report;
    report.scene = stream->id;
    report.tick = t.seq;
    report.label = t.job.label;
    report.status = SceneStatus::Rejected;
    report.reject = RejectReason::StreamClosed;
    report.error = "stream terminated before this tick ran";
    t.promise.set_value(std::move(report));
  }

  const auto finished = std::chrono::steady_clock::now();
  rollup.open_ns = ns_between(stream->opened, finished);
  rollup.drained = drained_by_server;
  if (stream->oneshot) {
    oneshot_report.queued_ns = ns_between(oneshot->enqueued, dequeued);
    oneshot_report.service_ns = ns_between(dequeued, finished);
    oneshot_report.latency_ns = ns_between(oneshot->enqueued, finished);
  }

  {
    const util::MutexLock lock(mu_);
    ServerStats& b = books_;
    b.retries += rollup.tick_retries;
    // A stream is one scene in the top-level bins: opened streams were
    // admitted, and the stream's terminal status is its scene status — so
    // submitted == admitted + rejected and admitted == completed +
    // quarantined + aborted hold across both submission flavors.
    switch (rollup.status) {
      case SceneStatus::Completed:
        ++b.completed;
        latencies_ns_.push_back(stream->oneshot ? oneshot_report.latency_ns : rollup.open_ns);
        b.engine.add_counters(stream_counters);
        ++b.engine.tasks;
        if (PackRecord* rec = find_pack_locked(pack_id)) ++rec->info.scenes_completed;
        break;
      case SceneStatus::Quarantined:
        ++b.quarantined;
        ++b.engine.quarantined;
        break;
      case SceneStatus::Aborted:
        ++b.aborted;
        break;
      case SceneStatus::Rejected:
        break;  // unreachable: enqueued streams are never Rejected
    }
    if (!stream->oneshot) {
      StreamStats& st = b.streams;
      switch (rollup.status) {
        case SceneStatus::Completed: ++st.completed; break;
        case SceneStatus::Quarantined: ++st.quarantined; break;
        case SceneStatus::Aborted: ++st.aborted; break;
        case SceneStatus::Rejected: break;
      }
      if (drained_by_server) ++st.drained;
      st.ticks_completed += rollup.ticks_completed;
      st.ticks_failed += rollup.ticks - rollup.ticks_completed;
      st.ticks_shed += abandoned.size();
      st.tick_retries += rollup.tick_retries;
      st.wmes_streamed += rollup.wmes_streamed;
      st.peak_resident_wm = std::max(st.peak_resident_wm, rollup.peak_wm);
      tick_latencies_ns_.insert(tick_latencies_ns_.end(), tick_latencies.begin(),
                                tick_latencies.end());
    }
  }

  // Resolve the terminal future exactly once, outside the lock.
  if (stream->oneshot) {
    oneshot->promise.set_value(std::move(oneshot_report));
  } else {
    stream->close_promise.set_value(std::move(rollup));
  }
}

ServerStats Server::drain() {
  std::call_once(drain_once_, [this] {
    std::vector<std::weak_ptr<StreamState>> registry;
    {
      const util::MutexLock lock(mu_);
      draining_ = true;
      registry = stream_registry_;
    }
    // Force-close every live stream: workers park on a stream's own cv
    // waiting for ticks a client may never send, so drain must poke them.
    // Queued ticks still run first (drain finishes admitted work); only the
    // open-ended wait is cut short.
    for (const std::weak_ptr<StreamState>& weak : registry) {
      if (const std::shared_ptr<StreamState> stream = weak.lock()) {
        {
          const util::MutexLock lock(stream->mu);
          stream->force_close = true;
        }
        stream->cv.notify_all();
      }
    }
    work_cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    const util::MutexLock lock(mu_);
    stopped_ = true;
    final_wall_ns_ = ns_between(start_, std::chrono::steady_clock::now());
  });
  return stats();
}

ServerStats Server::stats() const {
  const util::MutexLock lock(mu_);
  return stats_locked();
}

RejectReason Server::shed_locked() {
  if (stopped_ || draining_) {
    ++books_.rejected_draining;
    return stopped_ ? RejectReason::Stopped : RejectReason::Draining;
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++books_.rejected_queue_full;
    return RejectReason::QueueFull;
  }
  return RejectReason::None;
}

ServerStats Server::stats_locked() const {
  ServerStats s = books_;
  s.workers = options_.workers;
  s.submitted = next_scene_;
  s.admitted = next_scene_ - s.rejected_queue_full - s.rejected_draining;
  s.wall_ns =
      final_wall_ns_ >= 0 ? final_wall_ns_ : ns_between(start_, std::chrono::steady_clock::now());
  const double wall_s = static_cast<double>(s.wall_ns) * 1e-9;
  s.scenes_per_sec = s.wall_ns > 0 ? static_cast<double>(s.completed) / wall_s : 0.0;
  s.latency = obs::summarize_latency_ns(latencies_ns_);
  s.engine.retries = s.retries;
  s.engine.wall_ns = s.wall_ns;
  s.streams.tick_latency = obs::summarize_latency_ns(tick_latencies_ns_);
  s.streams.ticks_per_sec =
      s.wall_ns > 0 ? static_cast<double>(s.streams.ticks_completed) / wall_s : 0.0;

  s.packs_loaded = packs_.size();
  s.active_pack = active_pack_id_;
  s.packs.reserve(packs_.size());
  for (const PackRecord& rec : packs_) s.packs.push_back(rec.info);
  return s;
}

Server::PackRecord* Server::find_pack_locked(std::uint64_t id) {
  return id >= 1 && id <= packs_.size() ? &packs_[id - 1] : nullptr;
}

const Server::PackRecord* Server::find_pack_locked(std::uint64_t id) const {
  return id >= 1 && id <= packs_.size() ? &packs_[id - 1] : nullptr;
}

LoadResult Server::stage_pack(const PackCandidate& candidate) {
  if (candidate.program == nullptr || !candidate.program->frozen()) {
    throw std::invalid_argument("stage_pack needs a frozen candidate program");
  }

  // Snapshot the live side under the lock, then run analysis and compilation
  // WITHOUT it — the gate is pure static analysis over immutable programs,
  // and workers must keep serving while a candidate is judged.
  std::shared_ptr<const SharedRuleBase> live_rb;
  std::string live_label;
  {
    const util::MutexLock lock(mu_);
    const PackRecord* live = find_pack_locked(active_pack_id_);
    live_rb = live->rulebase;
    live_label = pack_label(live->info.name, live->info.version);
  }

  std::string cand_name = candidate.program->pack_name();
  std::string cand_version = candidate.program->pack_version();
  if (cand_name.empty()) cand_name = "pack";

  analysis::PackInput live_input;
  live_input.label = std::move(live_label);
  live_input.program = live_rb->program_ptr();
  live_input.seed_classes = options_.admission_seeds;
  live_input.output_classes = options_.admission_outputs;
  live_input.spec = options_.admission_spec;

  analysis::PackInput cand_input;
  cand_input.label = pack_label(cand_name, cand_version);
  cand_input.program = candidate.program;
  cand_input.seed_classes = options_.admission_seeds;
  cand_input.output_classes = options_.admission_outputs;

  LoadResult out;
  out.verdict = analysis::AnalysisPipeline().admit(&live_input, cand_input);
  out.accepted = out.verdict.accepted();

  std::shared_ptr<const SharedRuleBase> compiled;
  if (out.accepted) {
    // Candidate engines inherit the live pack's options.
    compiled = SharedRuleBase::compile(candidate.program, candidate.externals,
                                       live_rb->engine_options());
  }

  std::string verdict_json = out.verdict.to_json().dump(2);
  {
    const util::MutexLock lock(mu_);
    PackRecord& rec = packs_.emplace_back();
    rec.info.id = out.pack = packs_.size();
    rec.info.name = std::move(cand_name);
    rec.info.version = std::move(cand_version);
    rec.info.state = out.accepted ? PackState::Staged : PackState::Rejected;
    rec.info.decision = out.verdict.decision;
    rec.info.gated = true;
    rec.verdict_json = std::move(verdict_json);
    rec.rulebase = std::move(compiled);
    if (!out.accepted) ++books_.packs_rejected;
  }
  return out;
}

bool Server::activate_locked(std::uint64_t pack, bool is_rollback, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (stopped_) return fail("server is stopped");
  PackRecord* next = find_pack_locked(pack);
  if (next == nullptr) return fail("unknown pack id " + std::to_string(pack));
  if (next->info.state == PackState::Rejected) {
    return fail("pack " + std::to_string(pack) + " was rejected by the admission gate");
  }
  if (pack == active_pack_id_) {
    return fail("pack " + std::to_string(pack) + " is already active");
  }
  find_pack_locked(active_pack_id_)->info.state = PackState::Retired;
  next->info.state = PackState::Active;
  rollback_pack_id_ = active_pack_id_;
  active_pack_id_ = pack;
  if (is_rollback) {
    ++books_.pack_rollbacks;
  } else {
    ++books_.pack_swaps;
  }
  return true;
}

bool Server::activate_pack(std::uint64_t pack, std::string* error) {
  const util::MutexLock lock(mu_);
  return activate_locked(pack, /*is_rollback=*/false, error);
}

bool Server::rollback_pack(std::string* error) {
  const util::MutexLock lock(mu_);
  if (rollback_pack_id_ == 0) {
    if (error != nullptr) *error = "no previous pack to roll back to";
    return false;
  }
  return activate_locked(rollback_pack_id_, /*is_rollback=*/true, error);
}

std::vector<PackInfo> Server::packs() const {
  const util::MutexLock lock(mu_);
  std::vector<PackInfo> infos;
  infos.reserve(packs_.size());
  for (const PackRecord& rec : packs_) infos.push_back(rec.info);
  return infos;
}

std::uint64_t Server::active_pack() const {
  const util::MutexLock lock(mu_);
  return active_pack_id_;
}

std::optional<std::string> Server::verdict_json(std::uint64_t pack) const {
  const util::MutexLock lock(mu_);
  const PackRecord* rec = find_pack_locked(pack);
  if (rec == nullptr) return std::nullopt;
  return rec->verdict_json;
}

std::string Server::admin_talk(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> argv;
  for (std::string tok; in >> tok;) argv.push_back(std::move(tok));

  const auto parse_id = [](const std::string& s, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && end != s.c_str();
  };

  if (argv.empty() || argv[0] == "help") {
    return "commands:\n"
           "  help                  this text\n"
           "  stats                 server rollup JSON so far\n"
           "  pack list             registered rule packs\n"
           "  pack verdict <id>     admission verdict JSON of a gated pack\n"
           "  pack swap <id>        activate a staged/retired pack\n"
           "  pack rollback         re-activate the previously live pack\n"
           "  drain                 stop admission, finish in-flight scenes";
  }
  if (argv[0] == "stats") {
    return stats().to_json().dump(2);
  }
  if (argv[0] == "drain") {
    const ServerStats s = drain();
    return "drained: " + std::to_string(s.completed) + " completed, " +
           std::to_string(s.quarantined) + " quarantined, " + std::to_string(s.aborted) +
           " aborted";
  }
  if (argv[0] == "pack") {
    if (argv.size() >= 2 && argv[1] == "list") {
      std::string out = "id  pack                 state     decision  scenes  workers";
      for (const PackInfo& p : packs()) {
        char row[160];
        std::snprintf(row, sizeof row, "\n%-3llu %-20s %-9s %-9s %-7llu %llu%s",
                      static_cast<unsigned long long>(p.id),
                      pack_label(p.name, p.version).c_str(), to_string(p.state),
                      std::string(analysis::admission_decision_name(p.decision)).c_str(),
                      static_cast<unsigned long long>(p.scenes_completed),
                      static_cast<unsigned long long>(p.workers_on),
                      p.gated ? "" : "  (ungated boot pack)");
        out += row;
      }
      return out;
    }
    if (argv.size() >= 3 && argv[1] == "verdict") {
      std::uint64_t id = 0;
      if (!parse_id(argv[2], id)) return "error: bad pack id '" + argv[2] + "'";
      const std::optional<std::string> verdict = verdict_json(id);
      if (!verdict) return "error: unknown pack id " + argv[2];
      if (verdict->empty()) return "pack " + argv[2] + " is the ungated boot pack (no verdict)";
      return *verdict;
    }
    if (argv.size() >= 3 && argv[1] == "swap") {
      std::uint64_t id = 0;
      if (!parse_id(argv[2], id)) return "error: bad pack id '" + argv[2] + "'";
      std::string error;
      if (!activate_pack(id, &error)) return "error: " + error;
      return "pack " + argv[2] + " active; in-flight scenes finish on their old pack";
    }
    if (argv.size() >= 2 && argv[1] == "rollback") {
      std::string error;
      if (!rollback_pack(&error)) return "error: " + error;
      return "rolled back to pack " + std::to_string(active_pack());
    }
  }
  return "error: unknown command '" + line + "' (try help)";
}

}  // namespace psmsys::serve
