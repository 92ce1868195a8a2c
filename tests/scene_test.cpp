#include <gtest/gtest.h>

#include <set>

#include "geom/predicates.hpp"
#include "spam/scene.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::spam {
namespace {

// ---------------------------------------------------------------------------
// Scene container
// ---------------------------------------------------------------------------

TEST(Scene, IdIndex) {
  std::vector<Region> regions(2);
  regions[0].id = 10;
  regions[0].polygon = geom::Polygon::rectangle({0, 0}, {1, 1});
  regions[1].id = 20;
  regions[1].polygon = geom::Polygon::rectangle({2, 0}, {3, 1});
  const Scene scene(std::move(regions));
  EXPECT_EQ(scene.size(), 2u);
  EXPECT_NE(scene.find(10), nullptr);
  EXPECT_EQ(scene.find(99), nullptr);
  EXPECT_EQ(scene.at(20).id, 20u);
  EXPECT_THROW((void)scene.at(99), std::out_of_range);
}

TEST(Scene, RejectsDuplicateIds) {
  std::vector<Region> regions(2);
  regions[0].id = 7;
  regions[0].polygon = geom::Polygon::rectangle({0, 0}, {1, 1});
  regions[1].id = 7;
  regions[1].polygon = geom::Polygon::rectangle({2, 0}, {3, 1});
  EXPECT_THROW(Scene(std::move(regions)), std::invalid_argument);
}

TEST(Scene, ClassNamesRoundTrip) {
  for (std::size_t i = 0; i < kRegionClassCount; ++i) {
    const auto c = static_cast<RegionClass>(i);
    const auto back = class_from_name(class_name(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(class_from_name("volcano").has_value());
}

TEST(Scene, ComputeFeatures) {
  Region r;
  r.polygon = geom::Polygon::oriented_rectangle({0, 0}, 100.0, 10.0, 0.25);
  compute_features(r);
  EXPECT_NEAR(r.area, 1000.0, 1e-6);
  EXPECT_NEAR(r.elongation, 10.0, 1e-6);
  EXPECT_NEAR(r.orientation, 0.25, 1e-9);
  EXPECT_GT(r.compactness, 0.0);
  EXPECT_LT(r.compactness, 1.0);
}

TEST(Scene, CompactnessIsOneForCircleLimit) {
  Region r;
  r.polygon = geom::Polygon::regular({0, 0}, 10.0, 128);
  compute_features(r);
  EXPECT_NEAR(r.compactness, 1.0, 0.01);
}

// ---------------------------------------------------------------------------
// Generator invariants (the constraints must hold by construction)
// ---------------------------------------------------------------------------

class GeneratorTest : public ::testing::TestWithParam<const char*> {
 protected:
  GeneratorTest() : config_(dataset_by_name(GetParam())), scene_(generate_scene(config_)) {}

  [[nodiscard]] std::vector<const Region*> of_class(RegionClass c) const {
    std::vector<const Region*> out;
    for (const auto& r : scene_.regions()) {
      if (r.truth == c) out.push_back(&r);
    }
    return out;
  }

  DatasetConfig config_;
  Scene scene_;
};

TEST_P(GeneratorTest, Deterministic) {
  const Scene again = generate_scene(config_);
  ASSERT_EQ(again.size(), scene_.size());
  for (std::size_t i = 0; i < scene_.size(); ++i) {
    const auto& a = scene_.regions()[i];
    const auto& b = again.regions()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.truth, b.truth);
    EXPECT_DOUBLE_EQ(a.area, b.area);
    ASSERT_EQ(a.polygon.size(), b.polygon.size());
  }
}

TEST_P(GeneratorTest, GroundTruthCountsMatchConfig) {
  EXPECT_EQ(of_class(RegionClass::Runway).size(), static_cast<std::size_t>(config_.runways));
  EXPECT_EQ(of_class(RegionClass::TerminalBuilding).size(),
            static_cast<std::size_t>(config_.terminals));
  EXPECT_EQ(of_class(RegionClass::Hangar).size(), static_cast<std::size_t>(config_.hangars));
  // Giants are grass, on top of the configured grass regions.
  EXPECT_EQ(of_class(RegionClass::GrassyArea).size(),
            static_cast<std::size_t>(config_.grass_regions + config_.giant_regions));
  const std::size_t taxiways = static_cast<std::size_t>(
      config_.runways * (config_.parallel_taxiways_per_runway + config_.connectors_per_runway));
  EXPECT_EQ(of_class(RegionClass::Taxiway).size(), taxiways);
}

TEST_P(GeneratorTest, EveryRunwayIsCrossedByATaxiway) {
  const auto runways = of_class(RegionClass::Runway);
  const auto taxiways = of_class(RegionClass::Taxiway);
  for (const auto* rw : runways) {
    bool crossed = false;
    for (const auto* tw : taxiways) {
      if (geom::intersects(rw->polygon, tw->polygon).value) {
        crossed = true;
        break;
      }
    }
    EXPECT_TRUE(crossed) << "runway " << rw->id << " has no crossing taxiway";
  }
}

TEST_P(GeneratorTest, EveryTerminalIsNearAnApron) {
  for (const auto* t : of_class(RegionClass::TerminalBuilding)) {
    bool ok = false;
    for (const auto* a : of_class(RegionClass::ParkingApron)) {
      if (geom::adjacent_to(t->polygon, a->polygon, 250.0).value ||
          geom::intersects(t->polygon, a->polygon).value) {
        ok = true;
        break;
      }
    }
    EXPECT_TRUE(ok) << "terminal " << t->id << " is not adjacent to any apron";
  }
}

TEST_P(GeneratorTest, MostAccessRoadsLeadToATerminal) {
  const auto roads = of_class(RegionClass::AccessRoad);
  std::size_t leading = 0;
  for (const auto* r : roads) {
    for (const auto* t : of_class(RegionClass::TerminalBuilding)) {
      if (geom::leads_to(r->polygon, t->polygon, 1600.0).value) {
        ++leading;
        break;
      }
    }
  }
  // Orientation noise may cost a few, but the layout guarantees most.
  EXPECT_GE(leading * 10, roads.size() * 8) << leading << "/" << roads.size();
}

TEST_P(GeneratorTest, GiantsAreGeneratedLast) {
  const auto& regions = scene_.regions();
  ASSERT_GE(config_.giant_regions, 1);
  // The last giant_regions entries are the oversized grass regions.
  double giant_min_area = std::numeric_limits<double>::infinity();
  for (std::size_t i = regions.size() - static_cast<std::size_t>(config_.giant_regions);
       i < regions.size(); ++i) {
    EXPECT_EQ(regions[i].truth, RegionClass::GrassyArea);
    giant_min_area = std::min(giant_min_area, regions[i].area);
  }
  // Giants dwarf the average region.
  double avg = 0.0;
  for (const auto& r : regions) avg += r.area;
  avg /= static_cast<double>(regions.size());
  EXPECT_GT(giant_min_area, 2.0 * avg);
}

TEST_P(GeneratorTest, IdsAreDenseAndOrdered) {
  const auto& regions = scene_.regions();
  for (std::size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ(regions[i].id, i + 1);
  }
}

TEST_P(GeneratorTest, FeatureRangesSane) {
  for (const auto& r : scene_.regions()) {
    EXPECT_GE(r.area, 1.0);
    EXPECT_GE(r.elongation, 1.0);
    EXPECT_GE(r.orientation, 0.0);
    EXPECT_GE(r.polygon.size(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, GeneratorTest, ::testing::Values("SF", "DC", "MOFF"));

TEST(Datasets, ByNameAndAll) {
  EXPECT_EQ(dataset_by_name("SF").name, "SF");
  EXPECT_EQ(dataset_by_name("DC").name, "DC");
  EXPECT_EQ(dataset_by_name("MOFF").name, "MOFF");
  EXPECT_THROW(dataset_by_name("LAX"), std::invalid_argument);
  EXPECT_EQ(all_datasets().size(), 3u);
}

TEST(Datasets, SfIsLargest) {
  const auto sf = generate_scene(sf_config());
  const auto dc = generate_scene(dc_config());
  const auto moff = generate_scene(moff_config());
  EXPECT_GT(sf.size(), moff.size());
  EXPECT_GT(moff.size(), dc.size());
}

TEST(Datasets, DcHasMostComplexPolygons) {
  // DC's geometry-heavy segmentation drives its low match fraction.
  const auto avg_verts = [](const Scene& s) {
    double v = 0;
    for (const auto& r : s.regions()) v += static_cast<double>(r.polygon.size());
    return v / static_cast<double>(s.size());
  };
  EXPECT_GT(avg_verts(generate_scene(dc_config())), avg_verts(generate_scene(sf_config())));
}

}  // namespace
}  // namespace psmsys::spam
