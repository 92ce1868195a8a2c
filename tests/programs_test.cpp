#include <gtest/gtest.h>

#include "spam/constraints.hpp"
#include "spam/fragment.hpp"
#include "spam/phases.hpp"
#include "spam/programs.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::spam {
namespace {

// ---------------------------------------------------------------------------
// Sources parse and have the expected shape
// ---------------------------------------------------------------------------

TEST(PhasePrograms, AllPhasesBuild) {
  EXPECT_GT(build_rtf_program().program->productions().size(), 10u);
  EXPECT_GT(build_lcc_program().program->productions().size(), 100u);
  EXPECT_GE(build_fa_program().program->productions().size(), 4u);
  EXPECT_GE(build_model_program().program->productions().size(), 2u);
}

// Each phase is parsed and compiled once: every call returns the phase's one
// bundle, and every engine made from it matches over the bundle's compiled
// network.
TEST(PhasePrograms, EachPhaseIsCompiledOnce) {
  const Scene scene({});
  for (const auto build :
       {&build_rtf_program, &build_lcc_program, &build_fa_program, &build_model_program}) {
    const PhaseProgram phase = build();
    const PhaseProgram again = build();
    ASSERT_NE(phase.network, nullptr);
    EXPECT_EQ(again.program, phase.program);
    EXPECT_EQ(again.externals, phase.externals);
    EXPECT_EQ(again.network, phase.network);
    EXPECT_EQ(&phase.network->program(), phase.program.get());
    EXPECT_EQ(&phase.make_engine(scene)->network().compiled(), phase.network.get());
    EXPECT_EQ(&again.make_engine(scene)->network().compiled(), phase.network.get());
  }
}

TEST(PhasePrograms, LccHasFiveProductionsPerConstraint) {
  // One production per (constraint, level 1..4) plus one relation rule.
  const auto program = build_lcc_program().program;
  const std::size_t n_constraints = constraint_catalog().size();
  // Plus the generic support/context productions.
  EXPECT_GE(program->productions().size(), n_constraints * 5 + 2);
  EXPECT_LE(program->productions().size(), n_constraints * 5 + 6);
}

TEST(PhasePrograms, FragmentIdHelpersMatchRuleArithmetic) {
  // fragment.hpp encodes id = region*16 + ord + 1, and the generated rules
  // compute the same expression.
  EXPECT_EQ(fragment_id(10, RegionClass::Runway), 161u);
  EXPECT_EQ(fragment_region(161), 10u);
  EXPECT_EQ(fragment_class(161), RegionClass::Runway);
  EXPECT_EQ(fragment_class(fragment_id(7, RegionClass::Tarmac)), RegionClass::Tarmac);
  EXPECT_NE(rtf_source().find("* 16 + 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RTF classification behaviour on hand-built regions
// ---------------------------------------------------------------------------

class RtfBehaviourTest : public ::testing::Test {
 protected:
  /// Scene with a single region of chosen shape/texture.
  [[nodiscard]] static Scene single_region(geom::Polygon polygon, Texture texture) {
    Region r;
    r.id = 1;
    r.polygon = std::move(polygon);
    r.texture = texture;
    compute_features(r);
    std::vector<Region> regions;
    regions.push_back(std::move(r));
    return Scene(std::move(regions));
  }

  [[nodiscard]] static std::vector<Fragment> classify(const Scene& scene) {
    auto run = run_rtf(scene, 1);
    return run.fragments;
  }

  [[nodiscard]] static bool has_class(const std::vector<Fragment>& fs, RegionClass c) {
    for (const auto& f : fs) {
      if (f.cls == c) return true;
    }
    return false;
  }
};

TEST_F(RtfBehaviourTest, LongPavedStripIsRunway) {
  const Scene scene =
      single_region(geom::Polygon::oriented_rectangle({0, 0}, 3000, 50, 0.3), Texture::Paved);
  const auto fragments = classify(scene);
  ASSERT_FALSE(fragments.empty());
  EXPECT_TRUE(has_class(fragments, RegionClass::Runway));
}

TEST_F(RtfBehaviourTest, NarrowPavedStripIsTaxiway) {
  const Scene scene =
      single_region(geom::Polygon::oriented_rectangle({0, 0}, 2000, 25, 0.3), Texture::Paved);
  EXPECT_TRUE(has_class(classify(scene), RegionClass::Taxiway));
}

TEST_F(RtfBehaviourTest, SmallPavedStripIsAccessRoad) {
  const Scene scene =
      single_region(geom::Polygon::oriented_rectangle({0, 0}, 500, 12, 0.1), Texture::Paved);
  EXPECT_TRUE(has_class(classify(scene), RegionClass::AccessRoad));
}

TEST_F(RtfBehaviourTest, GrassTextureIsGrassyArea) {
  const Scene scene = single_region(geom::Polygon::regular({0, 0}, 150, 8), Texture::Grass);
  EXPECT_TRUE(has_class(classify(scene), RegionClass::GrassyArea));
}

TEST_F(RtfBehaviourTest, RoofedRectangleIsTerminalOrHangar) {
  const Scene scene = single_region(geom::Polygon::oriented_rectangle({0, 0}, 250, 60, 0.0),
                                    Texture::Roofed);
  const auto fragments = classify(scene);
  EXPECT_TRUE(has_class(fragments, RegionClass::TerminalBuilding) ||
              has_class(fragments, RegionClass::Hangar));
}

TEST_F(RtfBehaviourTest, HugePavedBlobIsApron) {
  const Scene scene = single_region(geom::Polygon::regular({0, 0}, 400, 10), Texture::Paved);
  EXPECT_TRUE(has_class(classify(scene), RegionClass::ParkingApron));
}

TEST_F(RtfBehaviourTest, AmbiguousBlobGetsTwoHypothesesOneBest) {
  // ~35k area paved blob sits in the tarmac/parking-lot ambiguity band.
  const Scene scene = single_region(geom::Polygon::regular({0, 0}, 105, 8), Texture::Paved);
  const auto fragments = classify(scene);
  EXPECT_GE(fragments.size(), 2u);
  int best = 0;
  for (const auto& f : fragments) best += f.best ? 1 : 0;
  EXPECT_EQ(best, 1);
}

TEST_F(RtfBehaviourTest, ExactlyOneBestPerRegion) {
  const Scene scene = generate_scene(dc_config());
  const auto fragments = run_rtf(scene, 3).fragments;
  std::unordered_map<std::uint32_t, int> best_per_region;
  for (const auto& f : fragments) {
    if (f.best) ++best_per_region[f.region];
  }
  for (const auto& [region, n] : best_per_region) {
    EXPECT_EQ(n, 1) << "region " << region;
  }
}

TEST_F(RtfBehaviourTest, BestIsHighestScore) {
  const Scene scene = generate_scene(dc_config());
  const auto fragments = run_rtf(scene, 3).fragments;
  std::unordered_map<std::uint32_t, double> max_score;
  for (const auto& f : fragments) {
    auto [it, inserted] = max_score.try_emplace(f.region, f.score);
    if (!inserted) it->second = std::max(it->second, f.score);
  }
  for (const auto& f : fragments) {
    if (f.best) {
      EXPECT_GE(f.score, max_score.at(f.region));
    }
  }
}

TEST_F(RtfBehaviourTest, ClassificationAccuracyIsHigh) {
  // The generator's feature noise creates some errors, but most regions with
  // ground truth must be classified correctly.
  const Scene scene = generate_scene(sf_config());
  const auto best = best_fragments(run_rtf(scene, 3).fragments);
  std::size_t correct = 0;
  std::size_t truthy = 0;
  std::unordered_map<std::uint32_t, RegionClass> classified;
  for (const auto& f : best) classified.emplace(f.region, f.cls);
  for (const auto& r : scene.regions()) {
    if (!r.truth) continue;
    ++truthy;
    const auto it = classified.find(r.id);
    if (it != classified.end() && it->second == *r.truth) ++correct;
  }
  EXPECT_GT(truthy, 0u);
  EXPECT_GE(correct * 10, truthy * 7) << correct << "/" << truthy;
}

// ---------------------------------------------------------------------------
// LCC behaviour on a tiny hand-built scene
// ---------------------------------------------------------------------------

class LccBehaviourTest : public ::testing::Test {
 protected:
  LccBehaviourTest() {
    std::vector<Region> regions(3);
    // A runway crossed by a taxiway, plus a distant taxiway.
    regions[0].id = 1;
    regions[0].polygon = geom::Polygon::oriented_rectangle({0, 0}, 3000, 50, 0.0);
    regions[1].id = 2;
    regions[1].polygon = geom::Polygon::oriented_rectangle({0, 0}, 700, 23, 1.57);
    regions[2].id = 3;
    regions[2].polygon = geom::Polygon::oriented_rectangle({50000, 50000}, 700, 23, 0.0);
    for (auto& r : regions) compute_features(r);
    scene_ = std::make_unique<Scene>(std::move(regions));

    fragments_ = {
        Fragment{fragment_id(1, RegionClass::Runway), 1, RegionClass::Runway, 90, true},
        Fragment{fragment_id(2, RegionClass::Taxiway), 2, RegionClass::Taxiway, 80, true},
        Fragment{fragment_id(3, RegionClass::Taxiway), 3, RegionClass::Taxiway, 80, true},
    };
  }

  std::unique_ptr<Scene> scene_;
  std::vector<Fragment> fragments_;
};

TEST_F(LccBehaviourTest, CrossingPairIsConsistent) {
  const LccRun run = run_lcc(*scene_, fragments_);
  const auto runway_frag = fragments_[0].id;
  const auto near_taxiway = fragments_[1].id;
  const auto far_taxiway = fragments_[2].id;

  // Find runway-intersects-taxiway results from a fresh engine run.
  const PhaseProgram phase = build_lcc_program();
  auto engine = phase.make_engine(*scene_);
  seed_fragment_wmes(*engine, fragments_);
  seed_constraint_wmes(*engine);
  seed_support_wmes(*engine, fragments_);
  engine->make_wme("lcc-task", {
      {"level", ops5::Value(3.0)},
      {"subject", ops5::Value(static_cast<double>(runway_frag))},
  });
  (void)engine->run();
  bool near_ok = false;
  bool far_ok = true;
  for (const auto& rec : extract_consistency(*engine)) {
    if (rec.subject != runway_frag) continue;
    if (rec.object == near_taxiway && rec.result) near_ok = true;
    if (rec.object == far_taxiway && rec.result &&
        constraint_catalog()[rec.constraint].kind == PredicateKind::Intersects) {
      far_ok = false;
    }
  }
  EXPECT_TRUE(near_ok);
  EXPECT_TRUE(far_ok);
  EXPECT_GE(run.positive_consistency, 1u);
}

TEST_F(LccBehaviourTest, InEngineContextsMatchControlSideFormation) {
  // Level 4 runs keep each subject's support counting inside one engine, so
  // the in-engine contexts must equal the control-side recomputation.
  const PhaseProgram phase = build_lcc_program();
  auto engine = phase.make_engine(*scene_);
  seed_fragment_wmes(*engine, fragments_);
  seed_constraint_wmes(*engine);
  seed_support_wmes(*engine, fragments_);
  for (std::size_t i = 0; i < kRegionClassCount; ++i) {
    engine->make_wme("lcc-task", {
        {"level", ops5::Value(4.0)},
        {"subject-class",
         ops5::Value(*engine->program().symbols().find(class_name(static_cast<RegionClass>(i))))},
    });
  }
  (void)engine->run();
  const auto in_engine = extract_contexts(*engine);
  const auto control = contexts_from_consistency(extract_consistency(*engine), fragments_);
  ASSERT_EQ(in_engine.size(), control.size());
  for (std::size_t i = 0; i < in_engine.size(); ++i) {
    EXPECT_EQ(in_engine[i].subject, control[i].subject);
    EXPECT_EQ(in_engine[i].cls, control[i].cls);
    EXPECT_DOUBLE_EQ(in_engine[i].strength, control[i].strength);
  }
}

TEST_F(LccBehaviourTest, LevelsProduceSameConsistency) {
  // The decomposition levels are different slicings of the same computation:
  // all four must produce exactly the same consistency set.
  std::vector<std::vector<ConsistencyRecord>> per_level;
  for (int level = 1; level <= 4; ++level) {
    const PhaseProgram phase = build_lcc_program();
    auto engine = phase.make_engine(*scene_);
    seed_fragment_wmes(*engine, fragments_);
    seed_constraint_wmes(*engine);
    seed_support_wmes(*engine, fragments_);
    // Inject every task of this level.
    for (const auto& f : fragments_) {
      if (level == 3) {
        engine->make_wme("lcc-task", {{"level", ops5::Value(3.0)},
                                      {"subject", ops5::Value(double(f.id))}});
      } else if (level == 2 || level == 1) {
        for (const auto* c : constraints_for(f.cls)) {
          if (level == 2) {
            engine->make_wme("lcc-task", {{"level", ops5::Value(2.0)},
                                          {"subject", ops5::Value(double(f.id))},
                                          {"constraint", ops5::Value(double(c->id))}});
          } else {
            for (const auto& o : fragments_) {
              if (o.id == f.id || o.cls != c->object) continue;
              engine->make_wme("lcc-task", {{"level", ops5::Value(1.0)},
                                            {"subject", ops5::Value(double(f.id))},
                                            {"constraint", ops5::Value(double(c->id))},
                                            {"object", ops5::Value(double(o.id))}});
            }
          }
        }
      }
    }
    if (level == 4) {
      for (std::size_t i = 0; i < kRegionClassCount; ++i) {
        engine->make_wme(
            "lcc-task",
            {{"level", ops5::Value(4.0)},
             {"subject-class", ops5::Value(*engine->program().symbols().find(
                                   class_name(static_cast<RegionClass>(i))))}});
      }
    }
    (void)engine->run();
    per_level.push_back(extract_consistency(*engine));
  }
  for (int level = 1; level < 4; ++level) {
    EXPECT_EQ(per_level[0], per_level[static_cast<std::size_t>(level)])
        << "level " << level + 1 << " diverges from level 1";
  }
}

// ---------------------------------------------------------------------------
// FA and MODEL
// ---------------------------------------------------------------------------

TEST(FaModelBehaviour, PipelineProducesAreasAndOneModel) {
  const Scene scene = generate_scene(dc_config());
  const PipelineResult result = run_pipeline(scene);
  ASSERT_EQ(result.phases.size(), 4u);
  EXPECT_EQ(result.phases[0].name, "RTF");
  EXPECT_EQ(result.phases[3].name, "MODEL");
  EXPECT_GT(result.phases[2].hypotheses, 0u);   // functional areas
  EXPECT_EQ(result.phases[3].hypotheses, 1u);   // exactly one scene model
  EXPECT_GT(result.contexts.size(), 0u);
}

TEST(FaModelBehaviour, LccDominatesRuntime) {
  // Tables 1-3: LCC is by far the most expensive phase.
  const Scene scene = generate_scene(dc_config());
  const PipelineResult result = run_pipeline(scene);
  const auto cost = [&](const char* name) -> util::WorkUnits {
    for (const auto& ph : result.phases) {
      if (ph.name == name) return ph.counters.total_cost();
    }
    return 0;
  };
  EXPECT_GT(cost("LCC"), cost("RTF"));
  EXPECT_GT(cost("LCC"), cost("FA"));
  EXPECT_GT(cost("LCC"), cost("MODEL"));
}

}  // namespace
}  // namespace psmsys::spam
