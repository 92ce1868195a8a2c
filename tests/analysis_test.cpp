#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "analysis/footprint.hpp"
#include "analysis/interference.hpp"
#include "analysis/lint.hpp"
#include "ops5/parser.hpp"

namespace psmsys::analysis {
namespace {

using ops5::ClassIndex;
using ops5::Program;
using ops5::SlotIndex;
using ops5::Value;
using ops5::parse_program;

constexpr const char* kDecls = R"(
(literalize thing a b c)
(literalize out v w)
(literalize widget a)
)";

[[nodiscard]] Program parse(const std::string& body) {
  return parse_program(std::string(kDecls) + body);
}

[[nodiscard]] std::vector<Code> codes(const std::vector<Diagnostic>& diags) {
  std::vector<Code> out;
  for (const auto& d : diags) out.push_back(d.code);
  return out;
}

[[nodiscard]] bool has_code(const std::vector<Diagnostic>& diags, Code code) {
  return std::any_of(diags.begin(), diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

[[nodiscard]] ClassIndex cls_of(const Program& p, std::string_view name) {
  return *p.class_index(*p.symbols().find(name));
}

[[nodiscard]] SlotIndex slot_of(const Program& p, std::string_view cls, std::string_view attr) {
  const ClassIndex c = cls_of(p, cls);
  return p.wme_class(c).slot_of(*p.symbols().find(attr));
}

// ---------------------------------------------------------------------------
// Rule registry: the table behind `spam_lint --list-rules`, pinned verbatim.
// A new rule (or a reworded/resevered one) must update this test — the list
// is part of the CLI surface and of the DESIGN.md/README documentation.
// ---------------------------------------------------------------------------

TEST(Diagnostics, RuleRegistryIsPinned) {
  struct Row {
    const char* code;
    Severity severity;
    const char* description;
  };
  const Row expected[] = {
      {"AN001", Severity::Error, "RHS references a variable no positive CE binds"},
      {"AN002", Severity::Warning, "variable bound in a positive CE but never used"},
      {"AN003", Severity::Warning, "positive CE class has no producer and is not seeded"},
      {"AN004", Severity::Error, "attribute tests within one CE can never all hold"},
      {"AN005", Severity::Warning, "modify/remove index lands on a negated LHS element"},
      {"AN006", Severity::Error, "variable's first occurrence uses a non-equality predicate"},
      {"AN007", Severity::Warning, "same attribute assigned twice in one make/modify"},
      {"AN008", Severity::Warning,
       "nothing the production writes is consumed or a declared output"},
      {"AN009", Severity::Warning, "positive CE class transitively unproducible from the seeds"},
      {"AN010", Severity::Warning, "static match cost or beta growth regressed past the bound"},
      {"AN011", Severity::Error, "candidate adds a task-interference conflict"},
      {"AN012", Severity::Error, "live independence certificate no longer holds"},
      {"AN013", Severity::Error, "result/output class removed or its layout changed"},
      {"AN014", Severity::Error, "test constant's type can never occur in the attribute's domain"},
      {"AN015", Severity::Warning, "condition is value-disjoint with the inferred attribute domain"},
      {"AN016", Severity::Warning, "binding-variable domains are disjoint across condition elements"},
      {"AN017", Severity::Warning, "modify writes values no condition on the class can ever match"},
  };
  ASSERT_EQ(std::size(expected), static_cast<std::size_t>(analysis::kCodeCount));
  for (std::uint16_t i = 1; i <= analysis::kCodeCount; ++i) {
    const auto code = static_cast<analysis::Code>(i);
    const Row& row = expected[i - 1];
    EXPECT_EQ(analysis::code_name(code), row.code);
    EXPECT_EQ(analysis::default_severity(code), row.severity) << row.code;
    EXPECT_EQ(analysis::code_description(code), row.description) << row.code;
  }
}

// ---------------------------------------------------------------------------
// Linter: one test per diagnostic code.
// ---------------------------------------------------------------------------

TEST(Lint, An001UnboundRhsVariable) {
  const Program p = parse(R"(
(p bad (thing ^a <x>) --> (make out ^v <y>))
)");
  const auto diags = lint_program(p);
  ASSERT_TRUE(has_code(diags, Code::UnboundRhsVariable));
  const auto& d = diags.front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(p.symbols().name(d.production), "bad");
  EXPECT_GT(d.loc.line, 0);
  EXPECT_EQ(count_errors(diags), 1u);
  EXPECT_EQ(format_diagnostic(p, d).substr(0, 5), "AN001");
}

TEST(Lint, An001VariableBoundOnlyInNegation) {
  // A negated CE cannot bind: <x> is not available on the RHS.
  const Program p = parse(R"(
(p neg-only (thing ^a 1) -(thing ^b <x>) --> (make out ^v <x>))
)");
  const auto diags = lint_program(p);
  ASSERT_TRUE(has_code(diags, Code::UnboundRhsVariable));
  EXPECT_NE(diags.front().message.find("negat"), std::string::npos);
}

TEST(Lint, An001BindActionMakesVariableEligible) {
  const Program p = parse(R"(
(p ok (thing ^a <x>) --> (bind <y> (compute <x> + 1)) (make out ^v <y>))
)");
  EXPECT_FALSE(has_code(lint_program(p), Code::UnboundRhsVariable));
}

TEST(Lint, An002UnusedBinding) {
  const Program p = parse(R"(
(p unused (thing ^a <x> ^b <y>) --> (make out ^v <x>))
)");
  const auto diags = lint_program(p);
  ASSERT_EQ(codes(diags), std::vector<Code>{Code::UnusedBinding});
  EXPECT_EQ(diags.front().severity, Severity::Warning);
  EXPECT_NE(diags.front().message.find("<y>"), std::string::npos);
}

TEST(Lint, An003UnreachableProduction) {
  const Program p = parse(R"(
(p producer (thing ^a 1) --> (make out ^v 2))
(p orphan (widget ^a 1) --> (make out ^v 3))
(p chained (out ^v <x>) --> (make out ^w <x>))
)");
  LintOptions options;
  options.seed_classes = {{cls_of(p, "thing")}};
  const auto diags = lint_program(p, options);
  // `widget` has no producer and is not seeded; `out` is produced.
  ASSERT_EQ(codes(diags), std::vector<Code>{Code::UnreachableProduction});
  EXPECT_EQ(p.symbols().name(diags.front().production), "orphan");

  // Without seed knowledge the check is disabled.
  EXPECT_TRUE(lint_program(p).empty());
}

TEST(Lint, An004ContradictoryTests) {
  const Program p = parse(R"(
(p empty-interval (thing ^a { > 5 < 3 }) --> (make out ^v 1))
(p disj-vs-eq (thing ^a << 1 2 >> ^a 3) --> (make out ^v 1))
(p ordering-vs-symbol (thing ^a paved ^a > 4) --> (make out ^v 1))
(p fine (thing ^a { > 3 < 5 }) --> (make out ^v 1))
)");
  const auto diags = lint_program(p);
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.code, Code::ContradictoryTests);
    EXPECT_EQ(d.severity, Severity::Error);
  }
  EXPECT_EQ(count_errors(diags), 3u);
}

TEST(Lint, An005ModifyTargetsNegatedCe) {
  // Program::add_production rejects these indices outright, so construct the
  // production directly and lint it standalone.
  const Program p = parse("");
  ops5::ConditionElement positive;
  positive.cls = cls_of(p, "thing");
  ops5::ConditionElement negated;
  negated.cls = cls_of(p, "out");
  negated.negated = true;

  ops5::ConditionElement second_positive;
  second_positive.cls = cls_of(p, "widget");

  {
    // `modify 2` resolves to the second *positive* CE (indices count
    // matchable CEs only), but LHS element 2 is the negation: the classic
    // off-by-one of counting the negation too.
    ops5::Production prod(*p.symbols().find("thing"), {positive, negated, second_positive},
                         {ops5::ModifyAction{2, {}}});
    const auto diags = lint_production(p, prod);
    ASSERT_TRUE(has_code(diags, Code::ModifyTargetsNegatedCe));
    EXPECT_EQ(diags.front().severity, Severity::Warning);
  }
  {
    // Genuinely out of range: error, not a heuristic.
    ops5::Production prod(*p.symbols().find("thing"), {positive, negated},
                         {ops5::RemoveAction{5}});
    const auto diags = lint_production(p, prod);
    ASSERT_TRUE(has_code(diags, Code::ModifyTargetsNegatedCe));
    EXPECT_EQ(diags.front().severity, Severity::Error);
  }
}

TEST(Lint, An006NonEqualityFirstUse) {
  const Program p = parse(R"(
(p bad-first (thing ^a > <x> ^b <x>) --> (make out ^v <x>))
)");
  const auto diags = lint_program(p);
  ASSERT_TRUE(has_code(diags, Code::NonEqualityFirstUse));
  EXPECT_EQ(diags.front().severity, Severity::Error);
}

TEST(Lint, An007DuplicateAttributeSet) {
  const Program p = parse(R"(
(p dup (thing ^a 1) --> (make out ^v 1 ^v 2))
)");
  const auto diags = lint_program(p);
  ASSERT_TRUE(has_code(diags, Code::DuplicateAttributeSet));
  EXPECT_EQ(diags.front().severity, Severity::Warning);
}

TEST(Lint, CleanProductionHasNoFindings) {
  const Program p = parse(R"(
(p clean
   (thing ^a <x> ^b > 3)
   -(out ^v <x>)
   -->
   (make out ^v <x> ^w (compute <x> * 2)))
)");
  LintOptions options;
  options.seed_classes = {{cls_of(p, "thing")}};
  EXPECT_TRUE(lint_program(p, options).empty());
}

// ---------------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------------

TEST(Footprint, ReadsAndWrites) {
  const Program p = parse(R"(
(p prod
   (thing ^a <x> ^b 7)
   -(out ^v <x>)
   -->
   (make out ^v <x>)
   (modify 1 ^c 9))
)");
  const auto fp = footprint_of(p.productions()[0]);
  ASSERT_EQ(fp.accesses.size(), 4u);
  EXPECT_EQ(fp.accesses[0].kind, AccessKind::Read);
  EXPECT_EQ(fp.accesses[0].cls, cls_of(p, "thing"));
  EXPECT_EQ(fp.accesses[1].kind, AccessKind::NegatedRead);
  EXPECT_EQ(fp.accesses[2].kind, AccessKind::Make);
  EXPECT_EQ(fp.accesses[3].kind, AccessKind::Modify);
  EXPECT_EQ(fp.accesses[3].cls, cls_of(p, "thing"));  // index counts positive CEs
}

TEST(Footprint, PositiveCeIndexSkipsNegations) {
  const Program p = parse(R"(
(p prod (thing ^a 1) -(out ^v 2) (widget ^a 3) --> (halt))
)");
  const auto& prod = p.productions()[0];
  ASSERT_NE(positive_ce(prod, 2), nullptr);
  EXPECT_EQ(positive_ce(prod, 2)->cls, cls_of(p, "widget"));
  EXPECT_EQ(positive_ce(prod, 3), nullptr);
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

TEST(AbstractVal, LatticeOperations) {
  const auto one = AbstractVal::of(Value(1));
  const auto onetwo = AbstractVal::finite({Value(1), Value(2)});
  const auto three = AbstractVal::of(Value(3));

  EXPECT_EQ(one.join(AbstractVal::of(Value(2))), onetwo);
  EXPECT_EQ(onetwo.meet(one), one);
  EXPECT_TRUE(onetwo.meet(three).is_bottom());
  EXPECT_TRUE(one.provably_disjoint(three));
  EXPECT_FALSE(one.provably_disjoint(onetwo));
  EXPECT_FALSE(one.provably_disjoint(AbstractVal::top()));
  EXPECT_TRUE(AbstractVal::bottom().provably_disjoint(AbstractVal::top()));

  EXPECT_EQ(onetwo.join(AbstractVal::top()), AbstractVal::top());
  EXPECT_EQ(onetwo.meet(AbstractVal::top()), onetwo);
  EXPECT_EQ(onetwo.join(AbstractVal::bottom()), onetwo);

  EXPECT_EQ(*one.singleton(), Value(1));
  EXPECT_FALSE(onetwo.singleton().has_value());
  EXPECT_TRUE(onetwo.contains(Value(2)));
  EXPECT_FALSE(onetwo.contains(Value(3)));

  // Duplicates collapse; the empty set is Bottom.
  EXPECT_EQ(AbstractVal::finite({Value(1), Value(1)}), one);
  EXPECT_TRUE(AbstractVal::finite({}).is_bottom());
}

// ---------------------------------------------------------------------------
// Interference: toy fixtures
// ---------------------------------------------------------------------------

constexpr const char* kToyDecls = R"(
(literalize job id)
(literalize note v)
(literalize out tag val)
(literalize out2 k val)
)";

[[nodiscard]] DecompositionSpec toy_spec(const char* body) {
  DecompositionSpec spec;
  spec.program = std::make_shared<const Program>(parse_program(std::string(kToyDecls) + body));
  const auto& p = *spec.program;
  spec.scratch_classes = {cls_of(p, "job"), cls_of(p, "note")};
  const SlotIndex id = slot_of(p, "job", "id");
  for (int i = 1; i <= 2; ++i) {
    TaskSpec task;
    task.task_id = static_cast<std::uint64_t>(i - 1);
    task.label = "t" + std::to_string(i);
    task.wmes.push_back(TaskWmeSpec{cls_of(p, "job"), {{id, Value(i)}}});
    spec.tasks.push_back(std::move(task));
  }
  return spec;
}

TEST(Interference, ConflictingFixtureIsFlagged) {
  // Both tasks make (out ^tag shared ...): keyed on ^tag alone the merged
  // result depends on which task wrote — a deliberate write-write conflict.
  auto spec = toy_spec(R"(
(p emit (job ^id <j>) --> (make out ^tag shared ^val <j>))
)");
  const auto& p = *spec.program;
  spec.result_classes = {{cls_of(p, "out"), {slot_of(p, "out", "tag")}}};
  const auto report = check_interference(spec);
  ASSERT_FALSE(report.independent());
  ASSERT_EQ(report.conflicts.size(), 1u);
  EXPECT_EQ(report.conflicts[0].kind, ConflictKind::WriteWrite);
  EXPECT_EQ(report.conflicts[0].cls, cls_of(p, "out"));
  EXPECT_EQ(p.symbols().name(report.conflicts[0].production_a), "emit");
  const auto summary = report.summary(p);
  EXPECT_NE(summary.find("write-write"), std::string::npos);
  EXPECT_NE(summary.find("emit"), std::string::npos);
}

TEST(Interference, KeyedByTaskValueIsIndependent) {
  // Same rule base, but with ^val in the key the injected ids separate the
  // two tasks' writes.
  auto spec = toy_spec(R"(
(p emit (job ^id <j>) --> (make out ^tag shared ^val <j>))
)");
  const auto& p = *spec.program;
  spec.result_classes = {
      {cls_of(p, "out"), {slot_of(p, "out", "tag"), slot_of(p, "out", "val")}}};
  const auto report = check_interference(spec);
  EXPECT_TRUE(report.independent()) << report.summary(p);
  EXPECT_EQ(report.tasks.size(), 2u);
  EXPECT_GE(report.tasks[0].activatable_productions, 1u);
  EXPECT_GE(report.tasks[0].result_writes, 1u);
}

TEST(Interference, CrossTaskReadIsFlagged) {
  // `read-note` feeds another task's scratch output into its own result:
  // the result content depends on task colocation.
  auto spec = toy_spec(R"(
(p emit2 (job ^id <j>) --> (make note ^v <j>))
(p read-note (note ^v <t>) (job ^id <j>) --> (make out ^tag <j> ^val <t>))
)");
  const auto& p = *spec.program;
  spec.result_classes = {{cls_of(p, "out"), {slot_of(p, "out", "tag")}}};
  const auto report = check_interference(spec);
  ASSERT_FALSE(report.independent());
  bool read_write = false;
  for (const auto& c : report.conflicts) {
    if (c.kind == ConflictKind::ReadWrite && c.cls == cls_of(p, "note")) read_write = true;
  }
  EXPECT_TRUE(read_write) << report.summary(p);
}

TEST(Interference, GuardedIdempotentMakesAreForgiven) {
  // Same cross-task read, but the intermediate is a guarded keyed make and
  // the reader's result write is a guarded keyed make: confluent — any task
  // that can match the leaked WME reproduces exactly the same result WME.
  auto spec = toy_spec(R"(
(p emit2 (job ^id <j>) -(note ^v <j>) --> (make note ^v <j>))
(p read-note (note ^v <t>) -(out2 ^k <t>) --> (make out2 ^k <t> ^val 7))
)");
  const auto& p = *spec.program;
  spec.result_classes = {{cls_of(p, "out2"), {slot_of(p, "out2", "k")}}};
  const auto report = check_interference(spec);
  EXPECT_TRUE(report.independent()) << report.summary(p);
}

TEST(Interference, RemoveOfSharedResultIsFlagged) {
  auto spec = toy_spec(R"(
(p emit (job ^id <j>) --> (make out ^tag shared ^val <j>))
(p retract (out ^tag shared ^val <v>) (job ^id 1) --> (remove 1))
)");
  const auto& p = *spec.program;
  spec.result_classes = {
      {cls_of(p, "out"), {slot_of(p, "out", "tag"), slot_of(p, "out", "val")}}};
  const auto report = check_interference(spec);
  ASSERT_FALSE(report.independent());
  bool remove_write = false;
  for (const auto& c : report.conflicts) {
    if (c.kind == ConflictKind::RemoveWrite) remove_write = true;
  }
  EXPECT_TRUE(remove_write) << report.summary(p);
}

TEST(Interference, EmptySpecIsTriviallyIndependent) {
  EXPECT_TRUE(check_interference(DecompositionSpec{}).independent());
}

}  // namespace
}  // namespace psmsys::analysis
