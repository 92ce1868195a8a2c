#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "util/stats.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kKeptFailures = 8;

/// Buffers of the reference loop, one per thread: 16 KB (L1), 1 MB (L2) and
/// 8 MB (past L2, into the shared L3, where the Rete memories live too).
struct ReferenceBuffers {
  std::array<std::vector<std::uint32_t>, 3> levels{std::vector<std::uint32_t>(1 << 12),
                                                   std::vector<std::uint32_t>(1 << 18),
                                                   std::vector<std::uint32_t>(1 << 21)};
  ReferenceBuffers() {
    for (auto& level : levels) {
      for (std::size_t i = 0; i < level.size(); ++i) {
        level[i] = static_cast<std::uint32_t>(i * 2654435761U);
      }
    }
  }
};

/// A dependent chain of loads through each buffer; its wall time in ms.
double reference_loop_ms(const ReferenceBuffers& buffers) {
  constexpr std::array<std::uint32_t, 3> kSteps = {200000, 100000, 30000};
  const auto start = Clock::now();
  std::uint32_t x = 1;
  for (std::size_t l = 0; l < buffers.levels.size(); ++l) {
    const auto& level = buffers.levels[l];
    const auto mask = static_cast<std::uint32_t>(level.size() - 1);
    for (std::uint32_t k = 0; k < kSteps[l]; ++k) x = level[x & mask] ^ (x * 31 + k);
  }
  static std::atomic<std::uint32_t> sink{0};
  sink.fetch_xor(x, std::memory_order_relaxed);  // keeps the chain from being optimised away
  return ms_between(start, Clock::now());
}
}  // namespace

double host_slowdown() {
  static const std::array<ReferenceBuffers, 2> buffers;
  double other_ms = 0.0;
  std::thread other([&] { other_ms = reference_loop_ms(buffers[1]); });
  const double own_ms = reference_loop_ms(buffers[0]);
  other.join();
  return (own_ms + other_ms) / (2.0 * kReferenceMs);
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < kKeptFailures) failures.push_back(why);
}

void Result::count(const std::string& name, std::uint64_t value) {
  for (const auto& [n, v] : counts) {
    if (n != name) continue;
    if (v != value && !diverged) {
      diverged = true;
      failures.push_back("count " + name + " changed between units of work: " +
                         std::to_string(v) + " then " + std::to_string(value));
    }
    return;
  }
  counts.emplace_back(name, value);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Mark mark_now() { return Mark{Clock::now(), process_cpu_seconds()}; }

Window window_since(const Mark& from, std::uint64_t ops, std::vector<double> latencies_ms) {
  Window w;
  w.wall_s = seconds_since(from.wall);
  w.cpu_s = process_cpu_seconds() - from.cpu;
  w.ops = ops;
  w.latencies_ms = std::move(latencies_ms);
  return w;
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double process_cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

double percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : psmsys::util::percentile(xs, p);
}

}  // namespace perfbench
