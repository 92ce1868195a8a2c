#include <gtest/gtest.h>

#include <numeric>

#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::spam {
namespace {

class DecompositionTest : public ::testing::Test {
 protected:
  DecompositionTest()
      : scene_(generate_scene(dc_config())),
        best_(best_fragments(run_rtf(scene_, 3).fragments)) {}

  Scene scene_;
  std::vector<Fragment> best_;
};

TEST_F(DecompositionTest, LevelFourHasNineTasks) {
  // Tables 5-7: exactly 9 Level 4 tasks (one per object class).
  EXPECT_EQ(lcc_decomposition(4, scene_, best_).tasks.size(), kRegionClassCount);
}

TEST_F(DecompositionTest, LevelThreeOneTaskPerFragment) {
  EXPECT_EQ(lcc_decomposition(3, scene_, best_).tasks.size(), best_.size());
}

TEST_F(DecompositionTest, LevelTwoCountsConstraintsPerFragment) {
  std::size_t expected = 0;
  for (const auto& f : best_) expected += constraints_for(f.cls).size();
  EXPECT_EQ(lcc_decomposition(2, scene_, best_).tasks.size(), expected);
}

TEST_F(DecompositionTest, LevelOneCountsComponents) {
  std::size_t expected = 0;
  std::array<std::size_t, kRegionClassCount> per_class{};
  for (const auto& f : best_) ++per_class[static_cast<std::size_t>(f.cls)];
  for (const auto& f : best_) {
    for (const auto* c : constraints_for(f.cls)) {
      std::size_t candidates = per_class[static_cast<std::size_t>(c->object)];
      if (c->object == f.cls) --candidates;  // excludes the subject itself
      expected += candidates;
    }
  }
  EXPECT_EQ(lcc_decomposition(1, scene_, best_).tasks.size(), expected);
}

TEST_F(DecompositionTest, TaskIdsAreDense) {
  for (int level = 1; level <= 4; ++level) {
    const auto d = lcc_decomposition(level, scene_, best_);
    for (std::size_t i = 0; i < d.tasks.size(); ++i) {
      EXPECT_EQ(d.tasks[i].id, i);
      EXPECT_FALSE(d.tasks[i].label.empty());
      EXPECT_TRUE(static_cast<bool>(d.tasks[i].inject));
    }
  }
}

TEST_F(DecompositionTest, FifoOrderPutsGiantsLast) {
  // Giants have the highest region ids, so their Level 3 tasks close the
  // queue (the tail-end effect of Section 6.2 needs this).
  const auto d = lcc_decomposition(3, scene_, best_);
  const auto ms = run_baseline(d);
  // The most expensive task must be in the final quarter of the queue.
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ms[i].cost() > ms[argmax].cost()) argmax = i;
  }
  EXPECT_GT(argmax, ms.size() * 3 / 4);
}

TEST_F(DecompositionTest, OutlierTasksExist) {
  // "a few tasks in each level ... have execution times that are an order of
  // magnitude larger than the average task in that level." Our giants land
  // at ~4.3x the average (tuned so the Level 3 / Level 2 speedup gap stays
  // paper-sized; see EXPERIMENTS.md).
  const auto ms = run_baseline(lcc_decomposition(3, scene_, best_));
  double sum = 0.0;
  double max = 0.0;
  for (const auto& m : ms) {
    sum += static_cast<double>(m.cost());
    max = std::max(max, static_cast<double>(m.cost()));
  }
  const double avg = sum / static_cast<double>(ms.size());
  EXPECT_GT(max, 4.0 * avg);
}

TEST_F(DecompositionTest, InvalidLevelRejected) {
  EXPECT_THROW(lcc_decomposition(0, scene_, best_), std::invalid_argument);
  EXPECT_THROW(lcc_decomposition(5, scene_, best_), std::invalid_argument);
}

TEST_F(DecompositionTest, BaselineTotalsRoughlyLevelIndependent) {
  // Table 8: "For a given airport dataset, there is a small difference in
  // the total execution time between the two levels of decomposition."
  const auto total = [&](int level) {
    util::WorkUnits t = 0;
    for (const auto& m : run_baseline(lcc_decomposition(level, scene_, best_))) t += m.cost();
    return static_cast<double>(t);
  };
  const double t3 = total(3);
  const double t2 = total(2);
  EXPECT_NEAR(t2 / t3, 1.0, 0.15);
}

TEST_F(DecompositionTest, GranularityHierarchy) {
  // Mean task time shrinks by roughly the fan-out at each level down.
  const auto mean_cost = [&](int level) {
    const auto ms = run_baseline(lcc_decomposition(level, scene_, best_));
    double sum = 0.0;
    for (const auto& m : ms) sum += static_cast<double>(m.cost());
    return sum / static_cast<double>(ms.size());
  };
  const double m4 = mean_cost(4);
  const double m3 = mean_cost(3);
  const double m2 = mean_cost(2);
  EXPECT_GT(m4, 5.0 * m3);
  EXPECT_GT(m3, 2.0 * m2);
}

TEST_F(DecompositionTest, MeasurementsCarryFiringsAndCycles) {
  const auto ms = run_baseline(lcc_decomposition(3, scene_, best_));
  std::uint64_t firings = 0;
  for (const auto& m : ms) firings += m.counters.firings;
  EXPECT_GT(firings, best_.size());  // at least one firing per subject
}

TEST_F(DecompositionTest, CycleRecordingOptIn) {
  auto without = run_baseline(lcc_decomposition(3, scene_, best_, false));
  auto with = run_baseline(lcc_decomposition(3, scene_, best_, true));
  EXPECT_TRUE(without[0].cycles.empty());
  EXPECT_FALSE(with[0].cycles.empty());
  // Cost totals agree regardless of recording.
  EXPECT_EQ(without[0].cost(), with[0].cost());
}

// Every task process of a decomposition matches over its phase's one
// compiled network; building one compiles nothing.
TEST_F(DecompositionTest, TaskProcessesShareTheCompiledNetwork) {
  for (const Decomposition& d :
       {lcc_decomposition(3, scene_, best_), rtf_decomposition(scene_, 3)}) {
    const auto first = d.factory.make_engine();
    const auto second = d.factory.make_engine();
    EXPECT_EQ(&first->network().compiled(), &second->network().compiled());
  }
  EXPECT_EQ(&lcc_decomposition(2, scene_, best_).factory.make_engine()->network().compiled(),
            build_lcc_program().network.get());
  EXPECT_EQ(&rtf_decomposition(scene_, 3).factory.make_engine()->network().compiled(),
            build_rtf_program().network.get());
}

TEST_F(DecompositionTest, RtfDecompositionGroups) {
  const auto d = rtf_decomposition(scene_, 2);
  EXPECT_EQ(d.tasks.size(), (scene_.size() + 1) / 2);
  EXPECT_THROW(rtf_decomposition(scene_, 0), std::invalid_argument);
}

TEST_F(DecompositionTest, RtfTasksClassifyEverything) {
  const auto d = rtf_decomposition(scene_, 2);
  psm::TaskRunner runner(d.factory);
  for (const auto& task : d.tasks) (void)runner.run(task);
  const auto fragments = extract_fragments(runner.engine());
  const auto whole = run_rtf(scene_, 2);
  EXPECT_EQ(fragments.size(), whole.fragments.size());
}

TEST_F(DecompositionTest, RtfTaskCountInPaperRange) {
  // Section 4: the RTF decomposition yields 60-100 tasks per dataset.
  for (const auto& cfg : all_datasets()) {
    const auto scene = generate_scene(cfg);
    const auto d = rtf_decomposition(scene, 3);
    EXPECT_GE(d.tasks.size(), 40u) << cfg.name;
    EXPECT_LE(d.tasks.size(), 110u) << cfg.name;
  }
}

}  // namespace
}  // namespace psmsys::spam
