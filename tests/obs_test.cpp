// Observability layer tests: JSON round-trips, tracer export, metrics
// snapshots, the BENCH schema validator, and the unified psm::run result
// (metrics, task and cycle spans, peak gauges).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON dump -> parse round-trip
// ---------------------------------------------------------------------------

TEST(ObsJson, RoundTripsNestedDocument) {
  json::Object env;
  env.emplace_back("compiler", json::Value("gcc \"12\"\n"));
  env.emplace_back("threads", json::Value(14));
  env.emplace_back("obs", json::Value(true));
  json::Array points;
  points.emplace_back(json::Value(1.0));
  points.emplace_back(json::Value(-0.5));
  points.emplace_back(json::Value(nullptr));
  json::Object doc;
  doc.emplace_back("env", json::Value(std::move(env)));
  doc.emplace_back("points", json::Value(std::move(points)));
  doc.emplace_back("unicode", json::Value(std::string("tab\t\x01 µ")));

  const json::Value original{std::move(doc)};
  for (const int indent : {0, 2}) {
    const auto parsed = json::parse(original.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(parsed->dump(), original.dump());
  }
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_FALSE(json::parse("{\"a\": }").has_value());
  EXPECT_FALSE(json::parse("[1, 2").has_value());
  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("{\"a\": 1} trailing").has_value());
}

TEST(ObsJson, ObjectPreservesInsertionOrder) {
  json::Object o;
  o.emplace_back("zebra", json::Value(1));
  o.emplace_back("alpha", json::Value(2));
  const json::Value v{std::move(o)};
  const std::string s = v.dump();
  EXPECT_LT(s.find("zebra"), s.find("alpha"));
}

// ---------------------------------------------------------------------------
// Tracer: record -> to_json -> parse
// ---------------------------------------------------------------------------

TEST(ObsTracer, ExportsChromeTraceEvents) {
  Tracer tracer;
  const auto begin = Tracer::Clock::now();
  json::Object args;
  args.emplace_back("task", json::Value(7));
  tracer.record_span("task", "psm", begin, begin + std::chrono::microseconds(250),
                     /*tid=*/3, std::move(args));
  ASSERT_EQ(tracer.size(), 1u);

  const auto parsed = json::parse(tracer.to_string());
  ASSERT_TRUE(parsed.has_value());
  const auto* unit = parsed->find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->as_string(), "ms");
  const auto* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 1u);

  const auto& ev = events->as_array()[0];
  const auto field = [&](const char* key) -> const json::Value& {
    const auto* v = ev.find(key);
    EXPECT_NE(v, nullptr) << "missing field " << key;
    static const json::Value missing;
    return v ? *v : missing;
  };
  EXPECT_EQ(field("ph").as_string(), "X");
  EXPECT_EQ(field("name").as_string(), "task");
  EXPECT_EQ(field("cat").as_string(), "psm");
  EXPECT_EQ(field("dur").as_number(), 250.0);
  EXPECT_EQ(field("pid").as_number(), 1.0);
  EXPECT_EQ(field("tid").as_number(), 3.0);
  const auto* ev_args = ev.find("args");
  ASSERT_NE(ev_args, nullptr);
  ASSERT_NE(ev_args->find("task"), nullptr);
  EXPECT_EQ(ev_args->find("task")->as_number(), 7.0);
}

TEST(ObsTracer, SampleEveryControlsCycleSpans) {
  Tracer tracer;
  tracer.set_sample_every(4);
  EXPECT_TRUE(tracer.should_sample(0));
  EXPECT_FALSE(tracer.should_sample(1));
  EXPECT_FALSE(tracer.should_sample(3));
  EXPECT_TRUE(tracer.should_sample(8));
  tracer.set_sample_every(0);  // disables cycle spans entirely
  EXPECT_FALSE(tracer.should_sample(0));
  EXPECT_FALSE(tracer.should_sample(4));
}

TEST(ObsTracer, ClearResetsBufferAndEpoch) {
  Tracer tracer;
  const auto t = Tracer::Clock::now();
  tracer.record_span("a", "x", t, t, 0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  const auto parsed = json::parse(tracer.to_string());
  ASSERT_TRUE(parsed.has_value());
}

// ---------------------------------------------------------------------------
// RunMetrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, ToJsonCarriesDerivedFields) {
  RunMetrics m;
  m.tasks = 4;
  m.match_cost_wu = 60;
  m.resolve_cost_wu = 10;
  m.rhs_cost_wu = 30;
  EXPECT_EQ(m.total_cost_wu(), 100u);
  EXPECT_DOUBLE_EQ(m.match_fraction(), 0.6);

  const json::Value v = m.to_json();
  const auto field = [&](const char* key) -> double {
    const auto* f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing field " << key;
    return f ? f->as_number() : -1.0;
  };
  EXPECT_EQ(field("tasks"), 4.0);
  EXPECT_EQ(field("match_cost_wu"), 60.0);
  EXPECT_EQ(field("total_cost_wu"), 100.0);
  EXPECT_DOUBLE_EQ(field("match_fraction"), 0.6);
  // Round-trips through the parser.
  EXPECT_TRUE(json::parse(v.dump(2)).has_value());
}

// ---------------------------------------------------------------------------
// BENCH schema validator
// ---------------------------------------------------------------------------

json::Value minimal_bench_doc() {
  json::Object env;
  env.emplace_back("compiler", json::Value("gcc"));
  env.emplace_back("build_type", json::Value("Release"));
  env.emplace_back("os", json::Value("linux"));
  env.emplace_back("arch", json::Value("x86_64"));
  env.emplace_back("hardware_threads", json::Value(8));

  json::Object point;
  point.emplace_back("procs", json::Value(2));
  point.emplace_back("speedup", json::Value(1.9));
  json::Array points;
  points.emplace_back(json::Value(std::move(point)));
  json::Object series;
  series.emplace_back("name", json::Value("SF_L3"));
  series.emplace_back("points", json::Value(std::move(points)));
  json::Array speedups;
  speedups.emplace_back(json::Value(std::move(series)));

  json::Object kase;
  kase.emplace_back("name", json::Value("lcc_tlp"));
  kase.emplace_back("wall_ns", json::Value(1000));
  kase.emplace_back("cpu_ns", json::Value(900));
  kase.emplace_back("speedups", json::Value(std::move(speedups)));
  json::Array cases;
  cases.emplace_back(json::Value(std::move(kase)));

  json::Object doc;
  doc.emplace_back("schema_version", json::Value(kBenchSchemaVersion));
  doc.emplace_back("suite", json::Value("lcc"));
  doc.emplace_back("env", json::Value(std::move(env)));
  doc.emplace_back("cases", json::Value(std::move(cases)));
  return json::Value{std::move(doc)};
}

TEST(ObsBenchSchema, AcceptsConformingDocument) {
  const auto violations = validate_bench_json(minimal_bench_doc());
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(ObsBenchSchema, AcceptsDocumentFromAnEarlierHarness) {
  // Earlier harnesses also wrote the top-level "quick" flag and
  // env.obs_enabled; unknown keys are ignored, so those documents still
  // validate under schema version 1.
  auto doc = minimal_bench_doc();
  doc.set("quick", json::Value(true));
  json::Value env = *doc.find("env");
  env.set("obs_enabled", json::Value(true));
  doc.set("env", std::move(env));
  ASSERT_NE(doc.find("quick"), nullptr);
  ASSERT_NE(doc.find("env")->find("obs_enabled"), nullptr);
  const auto violations = validate_bench_json(doc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(ObsBenchSchema, FlagsViolations) {
  // Wrong schema version.
  {
    auto doc = minimal_bench_doc();
    doc.set("schema_version", json::Value(99));
    EXPECT_FALSE(validate_bench_json(doc).empty());
  }
  // Missing suite.
  {
    json::Object o;
    o.emplace_back("schema_version", json::Value(kBenchSchemaVersion));
    EXPECT_FALSE(validate_bench_json(json::Value{std::move(o)}).empty());
  }
  // Invalid speedup point (procs < 1).
  {
    auto doc = minimal_bench_doc();
    doc.set("cases", json::Value(json::Array{}));
    EXPECT_FALSE(validate_bench_json(doc).empty())
        << "an empty cases array means the suite ran nothing";
    json::Object bad_point;
    bad_point.emplace_back("procs", json::Value(0));
    bad_point.emplace_back("speedup", json::Value(1.0));
    json::Array points;
    points.emplace_back(json::Value(std::move(bad_point)));
    json::Object series;
    series.emplace_back("name", json::Value("bad"));
    series.emplace_back("points", json::Value(std::move(points)));
    json::Array speedups;
    speedups.emplace_back(json::Value(std::move(series)));
    json::Object kase;
    kase.emplace_back("name", json::Value("c"));
    kase.emplace_back("wall_ns", json::Value(1));
    kase.emplace_back("cpu_ns", json::Value(1));
    kase.emplace_back("speedups", json::Value(std::move(speedups)));
    json::Array arr;
    arr.emplace_back(json::Value(std::move(kase)));
    doc.set("cases", json::Value(std::move(arr)));
    EXPECT_FALSE(validate_bench_json(doc).empty());
  }
  // Ragged table row.
  {
    auto doc = minimal_bench_doc();
    json::Array columns;
    columns.emplace_back(json::Value("a"));
    columns.emplace_back(json::Value("b"));
    json::Array row;
    row.emplace_back(json::Value("only-one-cell"));
    json::Array rows;
    rows.emplace_back(json::Value(std::move(row)));
    json::Object table;
    table.emplace_back("name", json::Value("t"));
    table.emplace_back("columns", json::Value(std::move(columns)));
    table.emplace_back("rows", json::Value(std::move(rows)));
    json::Array tables;
    tables.emplace_back(json::Value(std::move(table)));
    json::Object kase;
    kase.emplace_back("name", json::Value("c"));
    kase.emplace_back("wall_ns", json::Value(1));
    kase.emplace_back("cpu_ns", json::Value(1));
    kase.emplace_back("tables", json::Value(std::move(tables)));
    json::Array arr;
    arr.emplace_back(json::Value(std::move(kase)));
    doc.set("cases", json::Value(std::move(arr)));
    EXPECT_FALSE(validate_bench_json(doc).empty());
  }
}

// ---------------------------------------------------------------------------
// Executor integration: psm::run + tracer + metrics.
// ---------------------------------------------------------------------------

class ObsRunTest : public ::testing::Test {
 protected:
  ObsRunTest()
      : scene_(spam::generate_scene(spam::sf_config())),
        best_(spam::best_fragments(spam::run_rtf(scene_, 3).fragments)),
        decomposition_(spam::lcc_decomposition(3, scene_, best_)) {}

  spam::Scene scene_;
  std::vector<spam::Fragment> best_;
  spam::Decomposition decomposition_;
};

TEST_F(ObsRunTest, RunAttachesMetricsAndTaskSpans) {
  Tracer tracer;
  tracer.set_sample_every(64);
  psm::RunOptions options;
  options.task_processes = 2;
  options.strict = true;
  options.tracer = &tracer;
  const auto result = psm::run(decomposition_.factory, decomposition_.tasks, options);

  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.metrics.tasks, decomposition_.tasks.size());
  EXPECT_EQ(result.metrics.task_processes, 2u);
  EXPECT_GT(result.metrics.cycles, 0u);
  EXPECT_GT(result.metrics.total_cost_wu(), 0u);
  EXPECT_GT(result.metrics.match_fraction(), 0.0);
  EXPECT_LT(result.metrics.match_fraction(), 1.0);
  EXPECT_GT(result.metrics.wall_ns, 0);
  EXPECT_EQ(result.elapsed, result.report.wall);

  // Task spans are recorded for every task when a tracer is attached; the
  // engine adds sampled cycle spans, and the run folds in the peak gauges.
  const auto events = tracer.events();
  const auto task_spans = std::count_if(events.begin(), events.end(),
                                        [](const SpanEvent& e) { return e.category == "task"; });
  EXPECT_EQ(static_cast<std::size_t>(task_spans), decomposition_.tasks.size());
  const auto cycle_spans = std::count_if(events.begin(), events.end(),
                                         [](const SpanEvent& e) { return e.category == "engine"; });
  EXPECT_GT(cycle_spans, 0);
  EXPECT_GT(result.metrics.peak_conflict_set, 0u);
  EXPECT_GT(result.metrics.peak_live_tokens, 0u);

  // The whole trace document survives an export/parse round-trip.
  EXPECT_TRUE(json::parse(tracer.to_string()).has_value());
}

}  // namespace
}  // namespace psmsys::obs
