// Work-unit golden: pins what the match core CHARGES, independent of how it
// finds the work. For the interpretation pipeline — RTF, LCC Level 2 on one
// sequential task process, FA, MODEL — on the SF, DC and MOFF scenes, every
// util::WorkCounters field and a digest of the per-cycle records
// (record_cycles = true: match chunks, resolve and RHS cost) are compared
// against tests/golden/work_units.txt. The golden was recorded before the
// per-class working-memory index and the hashed alpha dispatch went in, so an
// indexing change that alters a single charge or chunk fails here.
//
// Each phase also runs with record_cycles = false (the path the phase runners
// and the serve tier take); its counters must equal the recorded run's, since
// whether chunks are recorded must not change what is charged.
//
// The last line pins the streaming path: an SF Level-2 LCC stream on one
// psm::TaskRunner, ticked over the SF stream schedule with its retractions,
// one tick aborted mid-run and retried, then closed. It covers what the
// pipeline lines do not: incremental add and remove match against a resident
// working memory, checkpoint rollback, and the close-time rollback of the
// whole journal. It was recorded before the conflict set moved to pooled
// records behind an open-addressed table, so a storage change that alters a
// charge on the stream path fails here.
//
// The whole file is compared exactly. On a mismatch the actual text is
// written to work_units_golden.actual in the working directory. Copying it
// over the golden re-records it, which is only legitimate when the cost model
// itself changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ops5/engine.hpp"
#include "psm/task.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/programs.hpp"
#include "spam/scene_generator.hpp"
#include "spam/stream_schedule.hpp"

namespace psmsys {
namespace {

using ops5::Value;

constexpr int kRtfGroupSize = 3;
constexpr int kLccLevel = 2;

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One phase's charges: counters plus the cycle-record digest.
struct Charges {
  util::WorkCounters counters;
  std::size_t records = 0;
  std::size_t chunks = 0;
  Digest digest;

  void add_records(std::span<const ops5::CycleRecord> cycles) {
    for (const ops5::CycleRecord& rec : cycles) {
      ++records;
      chunks += rec.match_chunks.size();
      digest.add(rec.match_chunks.size());
      for (const util::WorkUnits c : rec.match_chunks) digest.add(c);
      digest.add(rec.resolve_cost);
      digest.add(rec.rhs_cost);
    }
  }
};

std::string line(const std::string& label, const Charges& c) {
  const util::WorkCounters& w = c.counters;
  std::ostringstream os;
  os << label << " match_cost=" << w.match_cost << " alpha_tests=" << w.alpha_tests
     << " alpha_activations=" << w.alpha_activations << " join_probes=" << w.join_probes
     << " tokens_created=" << w.tokens_created << " tokens_deleted=" << w.tokens_deleted
     << " resolve_cost=" << w.resolve_cost << " rhs_cost=" << w.rhs_cost
     << " firings=" << w.firings << " rhs_actions=" << w.rhs_actions
     << " wmes_added=" << w.wmes_added << " wmes_removed=" << w.wmes_removed
     << " cycles=" << w.cycles << " records=" << c.records << " chunks=" << c.chunks
     << " digest=" << std::hex << c.digest.value() << '\n';
  return os.str();
}

void expect_same_counters(const util::WorkCounters& a, const util::WorkCounters& b,
                          const std::string& label) {
  EXPECT_EQ(a.match_cost, b.match_cost) << label;
  EXPECT_EQ(a.alpha_tests, b.alpha_tests) << label;
  EXPECT_EQ(a.alpha_activations, b.alpha_activations) << label;
  EXPECT_EQ(a.join_probes, b.join_probes) << label;
  EXPECT_EQ(a.tokens_created, b.tokens_created) << label;
  EXPECT_EQ(a.tokens_deleted, b.tokens_deleted) << label;
  EXPECT_EQ(a.resolve_cost, b.resolve_cost) << label;
  EXPECT_EQ(a.rhs_cost, b.rhs_cost) << label;
  EXPECT_EQ(a.firings, b.firings) << label;
  EXPECT_EQ(a.rhs_actions, b.rhs_actions) << label;
  EXPECT_EQ(a.wmes_added, b.wmes_added) << label;
  EXPECT_EQ(a.wmes_removed, b.wmes_removed) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
}

Value symbol(const ops5::Engine& engine, std::string_view name) {
  return Value(*engine.program().symbols().find(name));
}

ops5::EngineConfig recording() {
  ops5::EngineConfig options;
  options.record_cycles = true;
  return options;
}

/// RTF exactly as spam::run_rtf seeds it, on a recording engine.
Charges rtf_charges(const spam::Scene& scene) {
  const spam::PhaseProgram phase = spam::build_rtf_program();  // owns the externals
  auto engine = phase.make_engine(scene, recording());
  spam::seed_region_wmes(*engine, scene, kRtfGroupSize);
  const std::size_t groups = (scene.size() + kRtfGroupSize - 1) / kRtfGroupSize;
  for (std::size_t g = 0; g < groups; ++g) {
    engine->make_wme("rtf-task", {{"group", Value(static_cast<double>(g))}});
  }
  (void)engine->run();
  Charges c;
  c.counters = engine->counters();
  c.add_records(engine->cycle_records());
  return c;
}

/// Every Level-2 LCC task on one task process, in queue order.
Charges lcc_charges(const spam::Decomposition& d, std::vector<spam::ConsistencyRecord>* records) {
  psm::TaskRunner runner(d.factory);
  Charges c;
  for (const psm::Task& task : d.tasks) c.add_records(runner.run(task).cycles);
  c.counters = runner.engine().counters();
  if (records != nullptr) *records = spam::extract_consistency(runner.engine());
  return c;
}

/// FA exactly as spam::run_fa seeds it, on a recording engine.
Charges fa_charges(const spam::Scene& scene, std::span<const spam::Fragment> best,
                   std::span<const spam::Context> contexts) {
  const spam::PhaseProgram phase = spam::build_fa_program();  // owns the externals
  auto engine = phase.make_engine(scene, recording());
  spam::seed_fragment_wmes(*engine, best);
  spam::seed_context_wmes(*engine, contexts);
  for (std::size_t i = 0; i < spam::kRegionClassCount; ++i) {
    const auto cls = static_cast<spam::RegionClass>(i);
    engine->make_wme("fa-task", {{"class", symbol(*engine, spam::class_name(cls))}});
  }
  (void)engine->run();
  Charges c;
  c.counters = engine->counters();
  c.add_records(engine->cycle_records());
  return c;
}

/// MODEL exactly as spam::run_model seeds it, on a recording engine.
Charges model_charges(const spam::Scene& scene, std::span<const spam::FunctionalArea> areas) {
  const spam::PhaseProgram phase = spam::build_model_program();  // owns the externals
  auto engine = phase.make_engine(scene, recording());
  for (const auto& fa : areas) {
    engine->make_wme("functional-area", {
        {"id", Value(static_cast<double>(fa.id))},
        {"region", Value(static_cast<double>(fa.region))},
        {"class", symbol(*engine, spam::class_name(fa.cls))},
        {"size", Value(fa.size)},
    });
  }
  engine->make_wme("model-task", {{"go", symbol(*engine, "yes")}});
  (void)engine->run();
  Charges c;
  c.counters = engine->counters();
  c.add_records(engine->cycle_records());
  return c;
}

/// The dataset's four golden lines; also checks record_cycles off == on.
std::string dataset_lines(const spam::DatasetConfig& config) {
  const spam::Scene scene = spam::generate_scene(config);
  std::string out;

  const spam::RtfRun rtf = spam::run_rtf(scene, kRtfGroupSize);
  const Charges rtf_rec = rtf_charges(scene);
  expect_same_counters(rtf.report.counters, rtf_rec.counters, config.name + " rtf");
  out += line(config.name + " rtf", rtf_rec);

  const auto best = spam::best_fragments(rtf.fragments);
  std::vector<spam::ConsistencyRecord> records;
  const Charges lcc_rec =
      lcc_charges(spam::lcc_decomposition(kLccLevel, scene, best, true), &records);
  const Charges lcc_plain =
      lcc_charges(spam::lcc_decomposition(kLccLevel, scene, best, false), nullptr);
  EXPECT_EQ(lcc_plain.records, 0U);
  expect_same_counters(lcc_plain.counters, lcc_rec.counters, config.name + " lcc-l2");
  out += line(config.name + " lcc-l2", lcc_rec);

  const auto contexts = spam::contexts_from_consistency(records, best);
  const spam::FaRun fa = spam::run_fa(scene, best, contexts);
  const Charges fa_rec = fa_charges(scene, best, contexts);
  expect_same_counters(fa.report.counters, fa_rec.counters, config.name + " fa");
  out += line(config.name + " fa", fa_rec);

  const spam::PhaseReport model = spam::run_model(scene, fa.areas);
  const Charges model_rec = model_charges(scene, fa.areas);
  expect_same_counters(model.counters, model_rec.counters, config.name + " model");
  out += line(config.name + " model", model_rec);
  return out;
}

/// The stream golden line; also checks that closing the stream restored the
/// engine's working memory and conflict set.
std::string stream_line(const spam::DatasetConfig& config) {
  const spam::Scene scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, kRtfGroupSize).fragments);
  const spam::Decomposition d = spam::lcc_decomposition(kLccLevel, scene, best, true);
  const auto schedule =
      spam::make_stream_schedule(spam::stream_config_for(config, d.tasks.size()));

  psm::TaskRunner runner(d.factory);
  ops5::Engine& engine = runner.engine();
  const std::size_t base_wm = engine.wm_size();
  const std::size_t base_cs = engine.conflict_set_size();

  // A Level-2 task injects one lcc-task WME, the newest of its class; a
  // retraction removes it again, found by the timetag it arrived with.
  std::vector<ops5::TimeTag> arrived(d.tasks.size(), 0);
  const auto inject_tick = [&](const spam::StreamTickSpec& spec, ops5::Engine& e) {
    for (const std::size_t item : spec.arrivals) {
      d.tasks[item].inject(e);
      arrived[item] = 0;
      for (const ops5::Wme* w : e.wmes_of_class("lcc-task")) {
        arrived[item] = std::max(arrived[item], w->timetag());
      }
    }
    for (const std::size_t item : spec.retractions) {
      const auto tasks = e.wmes_of_class("lcc-task");
      const auto it = std::find_if(tasks.begin(), tasks.end(), [&](const ops5::Wme* w) {
        return w->timetag() == arrived[item];
      });
      ASSERT_NE(it, tasks.end()) << "retraction of item " << item;
      e.remove_wme(**it);
    }
  };
  const auto tick = [&](std::size_t t) {
    return psm::Task{t, "tick", [&, t](ops5::Engine& e) { inject_tick(schedule[t], e); }};
  };

  std::size_t retractions = 0;
  runner.begin_stream();
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    retractions += schedule[t].retractions.size();
    if (t == schedule.size() / 2) runner.abort_after(tick(t), 25);
    (void)runner.attempt(tick(t));
  }
  runner.end_stream();
  EXPECT_GT(retractions, 0U);
  EXPECT_EQ(engine.wm_size(), base_wm);
  EXPECT_EQ(engine.conflict_set_size(), base_cs);

  Charges c;
  c.counters = engine.counters();
  c.add_records(engine.cycle_records());
  return line(config.name + " stream", c);
}

TEST(WorkUnitsGolden, PipelineChargesMatchRecordedGolden) {
  std::string actual;
  for (const spam::DatasetConfig& config : spam::all_datasets()) actual += dataset_lines(config);
  actual += stream_line(spam::sf_config());

  const std::string path = std::string(PSMSYS_TEST_GOLDEN_DIR) + "/work_units.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() != actual) {
    std::ofstream("work_units_golden.actual") << actual;
    FAIL() << "work-unit charges differ from " << path
           << " (actual text written to work_units_golden.actual)\n--- expected\n"
           << expected.str() << "--- actual\n"
           << actual;
  }
}

}  // namespace
}  // namespace psmsys
