#pragma once

// Plumbing shared by the workloads: the command-line arguments, the
// per-run Result every workload fills, and the clock / process-resource
// helpers the end-to-end metrics are computed from.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: time the calls into each layer and report per-layer metrics.
  bool trace = false;
};

/// One stretch of a measured phase (about a second of it): the operations
/// it completed, their latencies, and the wall and process CPU time it took.
struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  std::vector<double> latencies_ms;  ///< one per completed operation
  /// The host's slowdown around the window (mean of host_slowdown() just
  /// before and just after it); the window's times are divided by it. 1
  /// where it is not sampled (the traced-only serve workload).
  double slowdown = 1.0;
};

/// How much slower than nominal the host runs right now: the time of a fixed
/// reference loop, run once on each of two threads, over kReferenceMs. The
/// loop is the benchmark's own code, so a change to the program never moves
/// it; what moves it is the shared host (other tenants' load changes the
/// vCPUs' speed by up to 40% within minutes, see README.md).
[[nodiscard]] double host_slowdown();
/// The reference loop's time on a quiet host, the nominal speed.
inline constexpr double kReferenceMs = 9.0;

/// Wall clock and process CPU at the start of a window.
struct Mark {
  Clock::time_point wall{};
  double cpu = 0.0;
};
[[nodiscard]] Mark mark_now();
/// The window from `from` to now.
[[nodiscard]] Window window_since(const Mark& from, std::uint64_t ops,
                                  std::vector<double> latencies_ms);

/// What one workload run measured.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few causes, echoed to stderr
  std::vector<double> setup_s;  ///< wall time of each set-up over the host's slowdown
  std::uint64_t completed = 0;
  /// The measured phase in windows; latencies and CPU per operation come
  /// from these, and so does throughput unless rate_windows is filled.
  std::vector<Window> windows;
  /// serve: the saturation phase's windows, which throughput comes from
  /// (the open loop's rate is fixed by its schedule).
  std::vector<Window> rate_windows;
  /// Per-layer metrics of a traced run, by BENCHMARK.json name.
  std::vector<std::pair<std::string, double>> layers;
  /// Counts that do not depend on thread scheduling, per fixed unit of work
  /// (a rotation, a stream pair, a reload): they must repeat exactly across
  /// runs with the same seed.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// A count differed between two units of this run: it measured different
  /// work, so the run is not correct even if every operation was.
  bool diverged = false;

  /// Count one failed operation and keep its cause.
  void fail(const std::string& why);
  /// Record a per-unit count; a unit that disagrees with an earlier one of
  /// the same run marks the run diverged.
  void count(const std::string& name, std::uint64_t value);
};

/// Derive an independent 64-bit seed for sub-stream `stream` of `seed`
/// (splitmix64 finalizer), so neighbouring --seed values give unrelated inputs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);
[[nodiscard]] double seconds_since(Clock::time_point from);

/// User + system CPU seconds of this process so far (getrusage).
[[nodiscard]] double process_cpu_seconds();
/// A /proc/self/status memory field (VmHWM, VmRSS) in MB; 0 if unreadable.
[[nodiscard]] double proc_status_mb(const char* field);

[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double median(const std::vector<double>& xs);
/// p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& xs, double p);

/// Replace `fixture` by a freshly built one, recording the build's wall time
/// over the host's slowdown around it in result.setup_s. The old fixture is
/// destroyed first, outside the timed interval, so the process never holds two.
template <class Fixture, class Make>
void rebuild(std::unique_ptr<Fixture>& fixture, Result& result, Make make) {
  fixture.reset();
  const double before = host_slowdown();
  const auto start = Clock::now();
  fixture = make();
  const double wall_s = seconds_since(start);
  result.setup_s.push_back(wall_s * 2.0 / (before + host_slowdown()));
}

/// Set-ups per run: `measured` in a measured run, spread over it, so setup_s
/// is a median of set-ups made at different moments; one in a traced run,
/// which does not report it.
[[nodiscard]] inline int setup_repeats(const Args& args, int measured) {
  return args.trace ? 1 : measured;
}

/// Measured time of a closed-loop workload, paused while the fixture is
/// rebuilt: `setups` set-ups fall at even shares of `seconds` of measuring.
class Measure {
 public:
  Measure(double seconds, int setups) : seconds_(seconds), setups_(setups) {}
  /// Seconds measured so far (set-up pauses excluded).
  [[nodiscard]] double elapsed() const { return seconds_since(start_) - paused_s_; }
  [[nodiscard]] bool done() const { return elapsed() >= seconds_; }
  /// Whether the next set-up is due; the caller then rebuilds and calls resumed().
  [[nodiscard]] bool setup_due() const {
    return built_ < setups_ && elapsed() >= seconds_ * built_ / setups_;
  }
  void paused_since(Clock::time_point from) {
    paused_s_ += seconds_since(from);
    ++built_;
  }

 private:
  double seconds_;
  int setups_;
  int built_ = 1;  ///< the first set-up comes before measuring starts
  double paused_s_ = 0.0;
  Clock::time_point start_ = Clock::now();
};

Result run_interpret(const Args& args);
Result run_serve(const Args& args);
Result run_stream(const Args& args);

}  // namespace perfbench
