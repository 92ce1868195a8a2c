// Implementation of the bench case registry, the measurement cache, the
// BENCH_<suite>.json assembly (schema v1, self-validated before exit) and
// the harness CLI.

#include "bench/harness.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "obs/bench_schema.hpp"
#include "psm/run.hpp"

namespace psmsys::bench {

namespace json = obs::json;

// ---------------------------------------------------------------------------
// Measurement helpers (hoisted from the old bench/common.hpp)
// ---------------------------------------------------------------------------

MeasuredLcc measure_lcc(const spam::DatasetConfig& config, int level, bool record_cycles) {
  MeasuredLcc out;
  out.config = config;
  out.scene = std::make_shared<spam::Scene>(spam::generate_scene(config));
  out.best = spam::best_fragments(spam::run_rtf(*out.scene, 3).fragments);
  out.level = level;
  out.has_cycle_records = record_cycles;
  const auto d = spam::lcc_decomposition(level, *out.scene, out.best, record_cycles);
  out.tasks = spam::run_baseline(d);
  return out;
}

MeasuredLcc measure_rtf(const spam::DatasetConfig& config, bool record_cycles) {
  MeasuredLcc out;
  out.config = config;
  out.scene = std::make_shared<spam::Scene>(spam::generate_scene(config));
  out.level = 2;
  out.has_cycle_records = record_cycles;
  const auto d = spam::rtf_decomposition(*out.scene, 3, record_cycles);
  out.tasks = spam::run_baseline(d);
  out.best = spam::best_fragments(spam::run_rtf(*out.scene, 3).fragments);  // for completeness
  return out;
}

TimedRun timed_run(const spam::Decomposition& decomposition, std::size_t task_processes,
                   int repetitions) {
  using Clock = std::chrono::steady_clock;
  TimedRun best;
  best.wall = std::chrono::nanoseconds::max();
  for (int rep = 0; rep < std::max(1, repetitions); ++rep) {
    std::mutex mu;
    Clock::time_point last_collect{};
    psm::RunOptions options;
    options.task_processes = task_processes;
    options.strict = true;
    // Each task process calls collect once, on its own thread, after its
    // last task and before its engine is destroyed.
    options.collect = [&](std::size_t, ops5::Engine&) {
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(mu);
      last_collect = std::max(last_collect, now);
    };
    auto result = psm::run(decomposition.factory, decomposition.tasks, options);
    const Clock::time_point returned = Clock::now();
    if (result.elapsed < best.wall) {
      best.wall = result.elapsed;
      best.tail = std::chrono::duration_cast<std::chrono::nanoseconds>(returned - last_collect);
      best.metrics = std::move(result.metrics);
    }
  }
  return best;
}

double tlp_speedup(const std::vector<util::WorkUnits>& costs, std::size_t procs,
                   psm::SchedulePolicy policy) {
  psm::TlpConfig base_cfg;
  base_cfg.task_processes = 1;
  psm::TlpConfig cfg;
  cfg.task_processes = procs;
  cfg.policy = policy;
  const auto base = psm::simulate_tlp(costs, base_cfg);
  const auto run = psm::simulate_tlp(costs, cfg);
  return psm::speedup(base.makespan, run.makespan);
}

void plot_curve(std::ostream& os, const std::string& title,
                const std::vector<std::pair<std::size_t, double>>& points, double y_max) {
  double top = y_max;
  for (const auto& [x, y] : points) top = std::max(top, y);
  const int height = 12;
  os << title << '\n';
  for (int row = height; row >= 1; --row) {
    const double level = top * row / height;
    os << (row == height ? '^' : '|');
    for (const auto& [x, y] : points) {
      os << (y >= level ? "  *" : "   ");
    }
    if (row == height) {
      os << "   " << util::Table::fmt(top, 1) << "x";
    }
    os << '\n';
  }
  os << '+';
  for (std::size_t i = 0; i < points.size(); ++i) os << "---";
  os << "-> procs\n ";
  for (const auto& [x, y] : points) {
    std::string label = std::to_string(x);
    while (label.size() < 3) label = " " + label;
    os << label;
  }
  os << '\n';
}

// ---------------------------------------------------------------------------
// MeasureCache
// ---------------------------------------------------------------------------

namespace {

/// Insert-or-assign on the vector-backed json::Object.
void set_member(json::Object& object, std::string_view key, json::Value value) {
  for (auto& [k, v] : object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object.emplace_back(std::string(key), std::move(value));
}

const MeasuredLcc& cached(std::map<std::string, MeasuredLcc>& cache, const std::string& key,
                          bool record_cycles, const auto& measure) {
  auto it = cache.find(key);
  // A cached run *with* cycle records serves requests without them: the
  // records only add per-cycle data, costs and counters are identical.
  if (it == cache.end() || (record_cycles && !it->second.has_cycle_records)) {
    it = cache.insert_or_assign(key, measure(record_cycles)).first;
  }
  return it->second;
}

}  // namespace

const MeasuredLcc& MeasureCache::lcc(const spam::DatasetConfig& config, int level,
                                     bool record_cycles) {
  return cached(lcc_, config.name + "/L" + std::to_string(level), record_cycles,
                [&](bool rc) { return measure_lcc(config, level, rc); });
}

const MeasuredLcc& MeasureCache::rtf(const spam::DatasetConfig& config, bool record_cycles) {
  return cached(rtf_, config.name, record_cycles,
                [&](bool rc) { return measure_rtf(config, rc); });
}

// ---------------------------------------------------------------------------
// CaseContext
// ---------------------------------------------------------------------------

void CaseContext::metric(const std::string& name, double value) {
  set_member(result_.metrics, name, json::Value(value));
}

void CaseContext::metrics(const obs::RunMetrics& m, const std::string& prefix) {
  const json::Value snapshot = m.to_json();
  for (const auto& [name, value] : snapshot.as_object()) {
    set_member(result_.metrics, prefix + name, value);
  }
}

void CaseContext::speedup_series(const std::string& name, std::vector<SpeedupPoint> points) {
  json::Array arr;
  for (const auto& p : points) {
    json::Object point;
    point.emplace_back("procs", json::Value(p.procs));
    point.emplace_back("speedup", json::Value(p.speedup));
    arr.emplace_back(std::move(point));
  }
  json::Object series;
  series.emplace_back("name", json::Value(name));
  series.emplace_back("points", json::Value(std::move(arr)));
  result_.speedups.emplace_back(std::move(series));
}

void CaseContext::table(const std::string& name, const util::Table& t) {
  json::Array columns;
  for (const auto& h : t.headers()) columns.emplace_back(h);
  json::Array rows;
  for (const auto& row : t.row_data()) {
    json::Array cells;
    for (const auto& cell : row) cells.emplace_back(cell);
    rows.emplace_back(std::move(cells));
  }
  json::Object entry;
  entry.emplace_back("name", json::Value(name));
  entry.emplace_back("columns", json::Value(std::move(columns)));
  entry.emplace_back("rows", json::Value(std::move(rows)));
  result_.tables.emplace_back(std::move(entry));
}

void CaseContext::note(std::string text) { result_.notes.push_back(std::move(text)); }

void CaseContext::fail(std::string reason) {
  result_.failed = true;
  result_.notes.push_back("FAILED: " + reason);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

struct RegisteredCase {
  std::string id;
  std::string suite;
  std::string title;
  CaseFn fn = nullptr;
};

[[nodiscard]] std::vector<RegisteredCase>& registry() {
  static std::vector<RegisteredCase> cases;
  return cases;
}

}  // namespace

bool register_case(const char* id, const char* suite, const char* title, CaseFn fn) {
  registry().push_back({id, suite, title, fn});
  return true;
}

// ---------------------------------------------------------------------------
// Harness CLI
// ---------------------------------------------------------------------------

namespace {

/// Environment fingerprint for the `env` object of every BENCH file.
[[nodiscard]] json::Object env_fingerprint() {
  json::Object env;
#if defined(__VERSION__)
  env.emplace_back("compiler", json::Value(std::string(__VERSION__)));
#else
  env.emplace_back("compiler", json::Value("unknown"));
#endif
#if defined(PSMSYS_BUILD_TYPE)
  env.emplace_back("build_type", json::Value(PSMSYS_BUILD_TYPE));
#else
  env.emplace_back("build_type", json::Value("unknown"));
#endif
#if defined(__linux__)
  env.emplace_back("os", json::Value("linux"));
#elif defined(__APPLE__)
  env.emplace_back("os", json::Value("darwin"));
#else
  env.emplace_back("os", json::Value("other"));
#endif
#if defined(__x86_64__)
  env.emplace_back("arch", json::Value("x86_64"));
#elif defined(__aarch64__)
  env.emplace_back("arch", json::Value("aarch64"));
#else
  env.emplace_back("arch", json::Value("other"));
#endif
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  env.emplace_back("hardware_threads", json::Value(threads));
  return env;
}

/// Swallows narrative output under --quiet.
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};

struct Options {
  std::vector<std::string> suites;  // empty = all
  std::string out_dir = ".";
  std::string validate_path;
  bool quiet = false;
  bool list = false;
  bool help = false;
};

void print_help(std::ostream& os) {
  os << "usage: harness [options]\n"
        "\n"
        "Runs the paper-reproduction benchmark suites and writes one\n"
        "BENCH_<suite>.json per suite (schema v1, see src/obs/bench_schema.hpp).\n"
        "\n"
        "options:\n"
        "  --suite <name>    run only this suite (repeatable; default: all)\n"
        "  --out <dir>       directory for BENCH_*.json files (default: .)\n"
        "  --list            list suites and cases, then exit\n"
        "  --quiet           suppress narrative output (JSON still written)\n"
        "  --validate <file> validate an existing BENCH_*.json and exit\n"
        "  --help            this message\n";
}

[[nodiscard]] bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires an argument";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      const char* v = value("--suite");
      if (v == nullptr) return false;
      options.suites.emplace_back(v);
    } else if (arg == "--out") {
      const char* v = value("--out");
      if (v == nullptr) return false;
      options.out_dir = v;
    } else if (arg == "--validate") {
      const char* v = value("--validate");
      if (v == nullptr) return false;
      options.validate_path = v;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else {
      error = "unknown option: " + std::string(arg);
      return false;
    }
  }
  return true;
}

[[nodiscard]] int validate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "harness: cannot open " << path << '\n';
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const auto doc = json::parse(buffer.str(), &parse_error);
  if (!doc.has_value()) {
    std::cerr << "harness: " << path << ": JSON parse error: " << parse_error << '\n';
    return 1;
  }
  const auto violations = obs::validate_bench_json(*doc);
  for (const auto& v : violations) std::cerr << "harness: " << path << ": " << v << '\n';
  if (violations.empty()) {
    std::cout << path << ": valid (schema v" << obs::kBenchSchemaVersion << ")\n";
    return 0;
  }
  return 1;
}

[[nodiscard]] json::Value case_to_json(const CaseResult& r) {
  json::Object c;
  c.emplace_back("name", json::Value(r.id));
  c.emplace_back("title", json::Value(r.title));
  c.emplace_back("wall_ns", json::Value(r.wall_ns));
  c.emplace_back("cpu_ns", json::Value(r.cpu_ns));
  if (!r.metrics.empty()) c.emplace_back("metrics", json::Value(r.metrics));
  if (!r.speedups.empty()) c.emplace_back("speedups", json::Value(json::Array(r.speedups)));
  if (!r.tables.empty()) c.emplace_back("tables", json::Value(json::Array(r.tables)));
  if (!r.notes.empty()) {
    json::Array notes;
    for (const auto& n : r.notes) notes.emplace_back(n);
    c.emplace_back("notes", json::Value(std::move(notes)));
  }
  if (r.failed) c.emplace_back("failed", json::Value(true));
  return json::Value(std::move(c));
}

}  // namespace

int run_harness(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << "harness: " << error << '\n';
    print_help(std::cerr);
    return 2;
  }
  if (options.help) {
    print_help(std::cout);
    return 0;
  }
  if (!options.validate_path.empty()) return validate_file(options.validate_path);

  // Suites in registration order, cases grouped under them.
  std::vector<std::string> suite_order;
  for (const auto& c : registry()) {
    if (std::find(suite_order.begin(), suite_order.end(), c.suite) == suite_order.end()) {
      suite_order.push_back(c.suite);
    }
  }
  if (options.list) {
    for (const auto& suite : suite_order) {
      std::cout << suite << '\n';
      for (const auto& c : registry()) {
        if (c.suite == suite) std::cout << "  " << c.id << "  (" << c.title << ")\n";
      }
    }
    return 0;
  }

  const std::vector<std::string> selected =
      options.suites.empty() ? suite_order : options.suites;
  for (const auto& s : selected) {
    if (std::find(suite_order.begin(), suite_order.end(), s) == suite_order.end()) {
      std::cerr << "harness: unknown suite '" << s << "' (try --list)\n";
      return 2;
    }
  }

  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  std::ostream& out = options.quiet ? null_stream : std::cout;

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::cerr << "harness: cannot create " << options.out_dir << ": " << ec.message() << '\n';
    return 1;
  }

  MeasureCache cache;
  bool any_failed = false;
  std::size_t violations_total = 0;

  for (const auto& suite : selected) {
    std::vector<CaseResult> results;
    for (const auto& c : registry()) {
      if (c.suite != suite) continue;
      out << "=== [" << suite << "/" << c.id << "] " << c.title << " ===\n\n";
      CaseResult result;
      result.id = c.id;
      result.suite = c.suite;
      result.title = c.title;
      CaseContext ctx(result, cache, out);
      const auto wall_begin = std::chrono::steady_clock::now();
      const std::clock_t cpu_begin = std::clock();
      try {
        c.fn(ctx);
      } catch (const std::exception& e) {
        ctx.fail(std::string("unhandled exception: ") + e.what());
      }
      const std::clock_t cpu_end = std::clock();
      result.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - wall_begin)
                           .count();
      result.cpu_ns = static_cast<std::int64_t>(
          1e9 * static_cast<double>(cpu_end - cpu_begin) / CLOCKS_PER_SEC);
      if (result.failed) {
        any_failed = true;
        std::cerr << "harness: case " << suite << "/" << c.id << " FAILED\n";
      }
      results.push_back(std::move(result));
      out << '\n';
    }

    json::Object doc;
    doc.emplace_back("schema_version", json::Value(obs::kBenchSchemaVersion));
    doc.emplace_back("suite", json::Value(suite));
    doc.emplace_back("env", json::Value(env_fingerprint()));
    json::Array cases;
    for (const auto& r : results) cases.push_back(case_to_json(r));
    doc.emplace_back("cases", json::Value(std::move(cases)));

    const json::Value value{std::move(doc)};
    const auto violations = obs::validate_bench_json(value);
    const std::string path = options.out_dir + "/BENCH_" + suite + ".json";
    std::ofstream file(path);
    if (!file) {
      std::cerr << "harness: cannot write " << path << '\n';
      return 1;
    }
    file << value.dump(2) << '\n';
    file.close();
    for (const auto& v : violations) {
      std::cerr << "harness: " << path << ": schema violation: " << v << '\n';
    }
    violations_total += violations.size();
    out << "wrote " << path << " (" << results.size() << " cases"
        << (violations.empty() ? "" : ", SCHEMA VIOLATIONS") << ")\n\n";
  }

  return (any_failed || violations_total > 0) ? 1 : 0;
}

}  // namespace psmsys::bench
