// perfbench: the benchmark binary. One workload per process, so each run's
// peak RSS is its own:
//
//   perfbench --workload interpret|serve|stream --seed N --seconds S
//             --trace 0|1
//
// Prints a readable report, then as its last line one JSON object with the
// run's accounting, its end-to-end metrics, its per-layer metrics (the
// serve layers only with --trace 1, which adds work: a standalone session
// pass and hot reloads) and the counts that must repeat across runs of one
// seed. perfbench/run.py builds this binary and turns that line into the
// benchmark result.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;
using Metrics = std::vector<std::pair<std::string, double>>;

constexpr const char* kUsage =
    "usage: perfbench --workload interpret|serve|stream --seed N --seconds S "
    "--trace 0|1\n";

[[nodiscard]] bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

[[nodiscard]] std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class T>
void write_object(std::ostream& os, const std::vector<std::pair<std::string, T>>& fields) {
  os << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << fields[i].first << "\":" << number(static_cast<double>(fields[i].second));
  }
  os << '}';
}

/// A time metric of a run: computed per window (over windows that completed
/// an operation) and corrected by the window's host slowdown, then the
/// median across windows.
template <class PerWindow>
[[nodiscard]] double over_windows(const std::vector<Window>& windows, PerWindow per_window) {
  std::vector<double> values;
  for (const Window& w : windows) {
    if (w.ops > 0 && w.wall_s > 0.0) values.push_back(per_window(w));
  }
  return median(values);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << kUsage;
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << kUsage;
    return 2;
  }

  Result result;
  try {
    if (args.workload == "interpret") {
      result = run_interpret(args);
    } else if (args.workload == "serve") {
      result = run_serve(args);
    } else if (args.workload == "stream") {
      result = run_stream(args);
    } else {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n" << kUsage;
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const auto& rate_windows = result.rate_windows.empty() ? result.windows : result.rate_windows;
  const Metrics e2e = {
      {"setup_s", median(result.setup_s)},
      {"throughput_per_s", over_windows(rate_windows, [](const Window& w) {
         return static_cast<double>(w.ops) / w.wall_s * w.slowdown;
       })},
      {"latency_p50_ms", over_windows(result.windows, [](const Window& w) {
         return percentile(w.latencies_ms, 50.0) / w.slowdown;
       })},
      {"latency_p90_ms", over_windows(result.windows, [](const Window& w) {
         return percentile(w.latencies_ms, 90.0) / w.slowdown;
       })},
      {"cpu_ms_per_op", over_windows(result.windows, [](const Window& w) {
         return w.cpu_s * 1e3 / static_cast<double>(w.ops) / w.slowdown;
       })},
      {"peak_rss_mb", proc_status_mb("VmHWM")},
  };
  const bool correct = result.failed == 0 && !result.diverged && result.completed > 0 &&
                       !result.windows.empty() && !rate_windows.empty();

  std::cout << "perfbench " << args.workload << " seed " << args.seed << " trace "
            << (args.trace ? 1 : 0) << ": " << result.completed << " of " << result.attempted
            << " operations completed, " << result.failed << " failed\n";
  for (const auto& [name, value] : e2e) std::cout << "  " << name << " " << value << "\n";
  std::vector<double> slowdowns;
  for (const Window& w : result.windows) slowdowns.push_back(w.slowdown);
  std::cout << "  host slowdown (median over windows) " << median(slowdowns) << "\n";
  for (const auto& [name, value] : result.layers) std::cout << "  " << name << " " << value << "\n";
  for (const auto& [name, value] : result.counts) std::cout << "  count " << name << " " << value << "\n";
  for (const std::string& why : result.failures) std::cerr << "perfbench: failed: " << why << "\n";

  std::ostringstream line;
  line << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"e2e\":";
  write_object(line, e2e);
  line << ",\"layers\":";
  write_object(line, result.layers);
  line << ",\"counts\":";
  write_object(line, result.counts);
  line << '}';
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
