#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/value_domain.hpp"
#include "ops5/parser.hpp"

namespace psmsys::analysis {
namespace {

using ops5::ClassIndex;
using ops5::Predicate;
using ops5::Program;
using ops5::SlotIndex;
using ops5::Value;
using ops5::parse_program;

constexpr const char* kDecls = R"(
(literalize task id state)
(literalize sensor id mode level)
(literalize flag state note)
(literalize ghost g)
(literalize out v)
)";

[[nodiscard]] Program parse(const std::string& body) {
  return parse_program(std::string(kDecls) + body);
}

[[nodiscard]] ClassIndex cls_of(const Program& p, std::string_view name) {
  return *p.class_index(*p.symbols().find(name));
}

[[nodiscard]] SlotIndex slot_of(const Program& p, std::string_view cls, std::string_view attr) {
  return p.wme_class(cls_of(p, cls)).slot_of(*p.symbols().find(attr));
}

[[nodiscard]] ValueDomainOptions seeded(const Program& p,
                                        std::vector<std::string_view> seeds,
                                        std::vector<std::string_view> outputs = {"out"}) {
  ValueDomainOptions opt;
  opt.seed_classes.emplace();
  for (auto s : seeds) opt.seed_classes->push_back(cls_of(p, s));
  opt.output_classes.emplace();
  for (auto s : outputs) opt.output_classes->push_back(cls_of(p, s));
  return opt;
}

[[nodiscard]] bool has_code(const std::vector<Diagnostic>& diags, Code code) {
  return std::any_of(diags.begin(), diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

// A rule base exercising every inference source: seeded classes, constant
// writes, variable copies, and an external call.
constexpr const char* kBase = R"(
(p seed-sensor
   (task ^id <i> ^state go)
   -->
   (make sensor ^id <i> ^mode active ^level 1))
(p mk-flag
   (task ^state go)
   -->
   (make flag ^state pending))
(p consume-flag
   (flag ^state pending)
   -->
   (make out ^v 2))
)";

// ---------------------------------------------------------------------------
// Lattice unit tests
// ---------------------------------------------------------------------------

TEST(ValueDomainLattice, OfAndContains) {
  const ValueDomain nil = ValueDomain::of(Value());
  EXPECT_TRUE(nil.may_be_nil());
  EXPECT_TRUE(nil.may_satisfy(Predicate::Eq, Value()));
  EXPECT_FALSE(nil.may_satisfy(Predicate::Eq, Value(1)));

  const ValueDomain one = ValueDomain::of(Value(1));
  EXPECT_TRUE(one.may_satisfy(Predicate::Eq, Value(1)));
  EXPECT_FALSE(one.may_satisfy(Predicate::Ne, Value(1)));
  EXPECT_TRUE(one.may_satisfy(Predicate::Lt, Value(2)));
  EXPECT_FALSE(one.may_satisfy(Predicate::Ge, Value(2)));
  EXPECT_FALSE(one.may_satisfy(Predicate::Gt, Value(2)));
}

TEST(ValueDomainLattice, JoinGrowsMonotonically) {
  ValueDomain d = ValueDomain::bottom();
  EXPECT_TRUE(d.is_bottom());
  EXPECT_TRUE(d.join_with(ValueDomain::of(Value(1)), 8));
  EXPECT_TRUE(d.join_with(ValueDomain::of(Value(4)), 8));
  EXPECT_FALSE(d.join_with(ValueDomain::of(Value(1)), 8));  // no growth
  EXPECT_TRUE(d.may_satisfy(Predicate::Eq, Value(4)));
  EXPECT_FALSE(d.may_satisfy(Predicate::Eq, Value(3)));
  EXPECT_FALSE(d.may_satisfy(Predicate::Lt, Value(1)));
  EXPECT_TRUE(d.join_with(ValueDomain::top(), 8));
  EXPECT_TRUE(d.is_top());
  EXPECT_FALSE(d.join_with(ValueDomain::of(Value(9)), 8));  // Top absorbs
}

TEST(ValueDomainLattice, ConstOverflowToRangeHull) {
  ValueDomain d = ValueDomain::bottom();
  for (int i = 1; i <= 5; ++i) d.join_with(ValueDomain::of(Value(i)), 3);
  // Past max_constants the numeric part becomes the integral interval hull.
  EXPECT_EQ(d.num_part(), ValueDomain::NumPart::Range);
  EXPECT_TRUE(d.may_satisfy(Predicate::Eq, Value(3)));
  EXPECT_FALSE(d.may_satisfy(Predicate::Eq, Value(6)));
  EXPECT_FALSE(d.may_satisfy(Predicate::Eq, Value(2.5)));  // integral hull
  EXPECT_FALSE(d.may_satisfy(Predicate::Gt, Value(5)));  // hull ends at 5
}

TEST(ValueDomainLattice, NarrowAndIntersect) {
  ValueDomain d = ValueDomain::bottom();
  for (int i = 1; i <= 4; ++i) d.join_with(ValueDomain::of(Value(i)), 8);
  const ValueDomain gt2 = d.narrowed(Predicate::Gt, Value(2));
  EXPECT_FALSE(gt2.may_satisfy(Predicate::Eq, Value(2)));
  EXPECT_TRUE(gt2.may_satisfy(Predicate::Eq, Value(3)));

  ValueDomain lo = ValueDomain::bottom();
  lo.join_with(ValueDomain::of(Value(1)), 8);
  lo.join_with(ValueDomain::of(Value(2)), 8);
  EXPECT_TRUE(lo.intersects(d));
  EXPECT_FALSE(lo.intersects(gt2));
}

// ---------------------------------------------------------------------------
// Fixpoint inference
// ---------------------------------------------------------------------------

TEST(ValueDomainAnalysis, InfersWrittenDomainsFromSeeds) {
  const Program p = parse(kBase);
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  ASSERT_TRUE(report.converged);
  const auto& symbols = p.symbols();

  // task is seeded: everything possible.
  EXPECT_TRUE(report.domain(cls_of(p, "task"), slot_of(p, "task", "id")).is_top());
  // sensor.id copies task.id (Top); mode and level come from literals.
  EXPECT_TRUE(report.domain(cls_of(p, "sensor"), slot_of(p, "sensor", "id")).is_top());
  EXPECT_EQ(report.domain(cls_of(p, "sensor"), slot_of(p, "sensor", "mode")).render(symbols),
            "sym{active}");
  EXPECT_EQ(report.domain(cls_of(p, "sensor"), slot_of(p, "sensor", "level")).render(symbols),
            "num{1}");
  // flag.note is never set by the make: it holds nil.
  EXPECT_EQ(report.domain(cls_of(p, "flag"), slot_of(p, "flag", "note")).render(symbols),
            "nil");
  // ghost is never written and not seeded.
  EXPECT_FALSE(report.reachable[cls_of(p, "ghost")]);
  EXPECT_TRUE(report.domain(cls_of(p, "ghost"), slot_of(p, "ghost", "g")).is_bottom());
  // flag.state is only ever written by mk-flag's literal.
  EXPECT_EQ(report.domain(cls_of(p, "flag"), slot_of(p, "flag", "state")).render(symbols),
            "sym{pending}");
  // Clean base: no value-domain findings.
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(ValueDomainAnalysis, UnseededAnalysisIsVacuousButSound) {
  const Program p = parse(kBase);
  const auto report = analyze_value_domains(p);  // no seeds declared
  ASSERT_TRUE(report.converged);
  EXPECT_TRUE(report.domain(cls_of(p, "ghost"), slot_of(p, "ghost", "g")).is_top());
  EXPECT_TRUE(report.diagnostics.empty());
}

// ---------------------------------------------------------------------------
// AN014-AN017: positive trigger + negative control each
// ---------------------------------------------------------------------------

TEST(ValueDomainAnalysis, An014AttributeTypeMismatch) {
  const Program p = parse(std::string(kBase) + R"(
(p bad14 (sensor ^mode 3) --> (make out ^v 1))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  ASSERT_TRUE(has_code(report.diagnostics, Code::AttributeTypeMismatch));
  const auto& d = *std::find_if(report.diagnostics.begin(), report.diagnostics.end(),
                                [](const Diagnostic& x) { return x.code == Code::AttributeTypeMismatch; });
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(p.symbols().name(d.production), "bad14");
  EXPECT_NE(d.message.find("sensor.mode"), std::string::npos);
}

TEST(ValueDomainAnalysis, An015AlwaysFalseCondition) {
  const Program p = parse(std::string(kBase) + R"(
(p bad15 (sensor ^level 2) --> (make out ^v 1))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  ASSERT_TRUE(has_code(report.diagnostics, Code::AlwaysFalseCondition));
  EXPECT_FALSE(has_code(report.diagnostics, Code::AttributeTypeMismatch));  // same kind, wrong value
}

TEST(ValueDomainAnalysis, An015OnNegatedCondition) {
  // A negated CE whose test can never pass is an absence test that always
  // holds: the production still fires, but the condition is dead code.
  const Program p = parse(std::string(kBase) + R"(
(p neg-dead (task ^state go) -(sensor ^mode off) --> (make out ^v 4))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  ASSERT_TRUE(report.converged);
  const auto it = std::find_if(report.diagnostics.begin(), report.diagnostics.end(),
                               [](const Diagnostic& x) { return x.code == Code::AlwaysFalseCondition; });
  ASSERT_NE(it, report.diagnostics.end());
  EXPECT_EQ(p.symbols().name(it->production), "neg-dead");
  EXPECT_NE(it->message.find("sensor.mode"), std::string::npos);
  EXPECT_NE(it->message.find("sym{active}"), std::string::npos);
  EXPECT_FALSE(has_code(report.diagnostics, Code::AttributeTypeMismatch));
}

TEST(ValueDomainAnalysis, An016InfeasibleJoin) {
  const Program p = parse(std::string(kBase) + R"(
(p bad16 (sensor ^mode <m>) (flag ^state <m>) --> (make out ^v 1))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  ASSERT_TRUE(has_code(report.diagnostics, Code::InfeasibleJoin));
}

TEST(ValueDomainAnalysis, An016NegativeControlOverlappingJoin) {
  const Program p = parse(std::string(kBase) + R"(
(p ok16 (sensor ^id <i>) (task ^id <i>) --> (make out ^v <i>))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  EXPECT_FALSE(has_code(report.diagnostics, Code::InfeasibleJoin));
}

TEST(ValueDomainAnalysis, An017DeadWriteModify) {
  const Program p = parse(std::string(kBase) + R"(
(p bad17 (flag ^state pending) --> (modify 1 ^state retired))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  ASSERT_TRUE(has_code(report.diagnostics, Code::DeadWriteModify));
}

TEST(ValueDomainAnalysis, An017NegativeControlRefractionIdiom) {
  // Writing a value some condition still matches (or a slot no condition
  // tests) is the normal way to retire a WME: no finding.
  const Program p = parse(std::string(kBase) + R"(
(p retire (flag ^state pending) --> (modify 1 ^note done))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  EXPECT_FALSE(has_code(report.diagnostics, Code::DeadWriteModify));
}

TEST(ValueDomainAnalysis, An017SkipsOutputClasses) {
  const Program p = parse(std::string(kBase) + R"(
(p bad17 (flag ^state pending) --> (modify 1 ^state retired))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}, {"out", "flag"}));
  EXPECT_FALSE(has_code(report.diagnostics, Code::DeadWriteModify));
}

TEST(ValueDomainAnalysis, BottomDomainsSuppressConditionFindings) {
  // Conditions on an unreachable class are AN003/AN009 territory; the
  // value-domain pass stays quiet.
  const Program p = parse(std::string(kBase) + R"(
(p never (ghost ^g 1) --> (make out ^v 3))
)");
  const auto report = analyze_value_domains(p, seeded(p, {"task"}));
  EXPECT_FALSE(has_code(report.diagnostics, Code::AlwaysFalseCondition));
  EXPECT_FALSE(has_code(report.diagnostics, Code::AttributeTypeMismatch));
}

}  // namespace
}  // namespace psmsys::analysis
