#include <gtest/gtest.h>

#include <map>

#include "spam/constraints.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::spam {
namespace {

TEST(ConstraintCatalog, IdsAreDense) {
  const auto catalog = constraint_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].id, static_cast<std::uint32_t>(i));
  }
}

TEST(ConstraintCatalog, NamesAreUnique) {
  std::map<std::string, int> names;
  for (const auto& c : constraint_catalog()) ++names[c.name];
  for (const auto& [name, count] : names) {
    EXPECT_EQ(count, 1) << "duplicate constraint name " << name;
  }
}

TEST(ConstraintCatalog, EveryClassHasThreeToFourConstraints) {
  // 9 subject classes with 3-4 constraints each gives the paper's Level 2 /
  // Level 3 task ratio of ~3.3 (Tables 5-8).
  for (std::size_t i = 0; i < kRegionClassCount; ++i) {
    const auto n = constraints_for(static_cast<RegionClass>(i)).size();
    EXPECT_GE(n, 3u) << class_name(static_cast<RegionClass>(i));
    EXPECT_LE(n, 4u) << class_name(static_cast<RegionClass>(i));
  }
}

TEST(ConstraintCatalog, ConstraintsForFiltersBySubject) {
  for (const auto* c : constraints_for(RegionClass::Runway)) {
    EXPECT_EQ(c->subject, RegionClass::Runway);
  }
}

TEST(ConstraintCatalog, PaperExamplesPresent) {
  // Section 2.2 names these explicitly.
  bool runway_taxiway = false;
  bool terminal_apron = false;
  bool road_terminal = false;
  for (const auto& c : constraint_catalog()) {
    if (c.subject == RegionClass::Runway && c.object == RegionClass::Taxiway &&
        c.kind == PredicateKind::Intersects) {
      runway_taxiway = true;
    }
    if (c.subject == RegionClass::TerminalBuilding && c.object == RegionClass::ParkingApron &&
        c.kind == PredicateKind::AdjacentTo) {
      terminal_apron = true;
    }
    if (c.subject == RegionClass::AccessRoad && c.object == RegionClass::TerminalBuilding &&
        c.kind == PredicateKind::LeadsTo) {
      road_terminal = true;
    }
  }
  EXPECT_TRUE(runway_taxiway);
  EXPECT_TRUE(terminal_apron);
  EXPECT_TRUE(road_terminal);
}

class ConstraintEvaluationTest : public ::testing::Test {
 protected:
  ConstraintEvaluationTest() : scene_(generate_scene(sf_config())) {}

  [[nodiscard]] const Constraint& by_name(std::string_view name) const {
    for (const auto& c : constraint_catalog()) {
      if (c.name == name) return c;
    }
    throw std::logic_error("no such constraint");
  }

  [[nodiscard]] std::uint32_t first_of(RegionClass c) const {
    for (const auto& r : scene_.regions()) {
      if (r.truth == c) return r.id;
    }
    throw std::logic_error("no region of class");
  }

  Scene scene_;
};

TEST_F(ConstraintEvaluationTest, EvaluationChargesFlops) {
  const auto& c = by_name("runway-intersects-taxiway");
  const auto r = evaluate_constraint(c, scene_, first_of(RegionClass::Runway),
                                     first_of(RegionClass::Taxiway));
  EXPECT_GT(r.flops, 0u);
}

TEST_F(ConstraintEvaluationTest, GroundTruthPairsMostlySatisfied) {
  // For every constraint, at least one ground-truth subject/object pair in
  // the scene must satisfy it (the generator lays the scene out that way).
  for (const auto& c : constraint_catalog()) {
    bool satisfied = false;
    for (const auto& s : scene_.regions()) {
      if (s.truth != c.subject) continue;
      for (const auto& o : scene_.regions()) {
        if (o.truth != c.object || o.id == s.id) continue;
        if (evaluate_constraint(c, scene_, s.id, o.id).value) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) break;
    }
    EXPECT_TRUE(satisfied) << "constraint " << c.name << " holds for no ground-truth pair";
  }
}

TEST_F(ConstraintEvaluationTest, SwappedConstraintOrientation) {
  // "access roads lead to terminal buildings" with subject = terminal must
  // equal the unswapped road-subject version with arguments exchanged.
  const auto& swapped = by_name("access-road-leads-to-terminal");
  const auto& direct = by_name("road-leads-to-terminal");
  ASSERT_TRUE(swapped.swapped);
  ASSERT_FALSE(direct.swapped);
  const auto terminal = first_of(RegionClass::TerminalBuilding);
  const auto road = first_of(RegionClass::AccessRoad);
  EXPECT_EQ(evaluate_constraint(swapped, scene_, terminal, road).value,
            evaluate_constraint(direct, scene_, road, terminal).value);
}

TEST_F(ConstraintEvaluationTest, SelfPairsNotSpecial) {
  // A constraint with subject == object class (e.g. runway aligned with
  // runway) evaluates cleanly for distinct regions.
  const auto& c = by_name("runway-aligned-with-runway");
  std::vector<std::uint32_t> runways;
  for (const auto& r : scene_.regions()) {
    if (r.truth == RegionClass::Runway) runways.push_back(r.id);
  }
  ASSERT_GE(runways.size(), 2u);
  const auto r = evaluate_constraint(c, scene_, runways[0], runways[1]);
  EXPECT_GT(r.flops, 0u);
}

TEST_F(ConstraintEvaluationTest, UnknownRegionThrows) {
  const auto& c = by_name("runway-intersects-taxiway");
  EXPECT_THROW((void)evaluate_constraint(c, scene_, 999999, 1), std::out_of_range);
}

}  // namespace
}  // namespace psmsys::spam
