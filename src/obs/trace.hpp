#pragma once

// Span tracing for the PSM executor and OPS5 engine.
//
// Spans are complete events ("ph":"X") in the Chrome trace_event JSON format,
// so a run's timeline loads directly into chrome://tracing or Perfetto. The
// engine's per-cycle hook is always compiled in and gated at run time:
// Tracer::sample_every records only every Nth cycle span, and a null tracer
// pointer short-circuits before any clock call.
//
// Timestamps are microseconds relative to the tracer's epoch (its moment of
// construction or the last reset), which keeps traces from concurrent workers
// on one comparable axis.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace psmsys::obs {

/// One completed span. `ts_us`/`dur_us` are microseconds against the tracer
/// epoch; `pid`/`tid` map to trace_event's process/thread lanes (the executor
/// uses pid 1 and tid = task-process index).
struct SpanEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t pid = 1;
  std::uint32_t tid = 0;
  /// Extra key/value payload, rendered into the event's "args" object.
  json::Object args;
};

/// Thread-safe span sink. Recording appends to an in-memory buffer; export is
/// explicit. The tracer never touches the engine hot path unless attached.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// Record only every Nth per-cycle span (task spans are always recorded).
  /// 0 disables cycle spans entirely; 1 records every cycle.
  void set_sample_every(std::uint64_t n) { sample_every_ = n; }
  [[nodiscard]] std::uint64_t sample_every() const noexcept {
    return sample_every_;
  }

  /// True when the nth occurrence (0-based) of a sampled span should record.
  [[nodiscard]] bool should_sample(std::uint64_t n) const noexcept {
    return sample_every_ != 0 && n % sample_every_ == 0;
  }

  [[nodiscard]] Clock::time_point epoch() const noexcept { return epoch_; }

  /// Microseconds since the tracer epoch for a raw clock reading.
  [[nodiscard]] std::int64_t to_us(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  }

  void record(SpanEvent ev) {
    std::lock_guard lock(mutex_);
    events_.push_back(std::move(ev));
  }

  /// Convenience: record a span from two clock readings.
  void record_span(std::string name, std::string category,
                   Clock::time_point begin, Clock::time_point end,
                   std::uint32_t tid, json::Object args = {}) {
    SpanEvent ev;
    ev.name = std::move(name);
    ev.category = std::move(category);
    ev.ts_us = to_us(begin);
    ev.dur_us =
        std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
            .count();
    ev.tid = tid;
    ev.args = std::move(args);
    record(std::move(ev));
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return events_.size();
  }

  /// Snapshot of recorded events (copy; the tracer may keep recording).
  [[nodiscard]] std::vector<SpanEvent> events() const {
    std::lock_guard lock(mutex_);
    return events_;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    events_.clear();
    epoch_ = Clock::now();
  }

  /// Chrome trace_event document: {"traceEvents": [...], "displayTimeUnit":
  /// "ms"}. Loadable in chrome://tracing / Perfetto as-is.
  [[nodiscard]] json::Value to_json() const;

  /// Serialized trace_event JSON (compact).
  [[nodiscard]] std::string to_string() const { return to_json().dump(); }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanEvent> events_;
  Clock::time_point epoch_;
  std::uint64_t sample_every_ = 1;
};

}  // namespace psmsys::obs
