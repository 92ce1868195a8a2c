#include <gtest/gtest.h>

#include "ops5/bindings.hpp"
#include "ops5/production.hpp"
#include "ops5/value.hpp"
#include "ops5/wme.hpp"

namespace psmsys::ops5 {
namespace {

// ---------------------------------------------------------------------------
// SymbolTable
// ---------------------------------------------------------------------------

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  const Symbol a = t.intern("runway");
  const Symbol b = t.intern("runway");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.name(a), "runway");
}

TEST(SymbolTable, NilIsPredefined) {
  SymbolTable t;
  EXPECT_EQ(t.intern("nil"), kNilSymbol);
  EXPECT_EQ(t.name(kNilSymbol), "nil");
}

TEST(SymbolTable, FindDoesNotIntern) {
  SymbolTable t;
  EXPECT_FALSE(t.find("taxiway").has_value());
  t.intern("taxiway");
  EXPECT_TRUE(t.find("taxiway").has_value());
}

TEST(SymbolTable, FrozenRejectsNewAllowsExisting) {
  SymbolTable t;
  const Symbol a = t.intern("apron");
  t.freeze();
  EXPECT_EQ(t.intern("apron"), a);
  EXPECT_THROW(t.intern("hangar"), std::logic_error);
}

TEST(SymbolTable, UnknownIdThrows) {
  SymbolTable t;
  EXPECT_THROW((void)t.name(static_cast<Symbol>(999)), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Value, KindsAndEquality) {
  SymbolTable t;
  const Value nil;
  const Value sym(t.intern("x"));
  const Value num(3.5);
  EXPECT_TRUE(nil.is_nil());
  EXPECT_TRUE(sym.is_symbol());
  EXPECT_TRUE(num.is_number());
  EXPECT_EQ(nil, Value{});
  EXPECT_EQ(num, Value(3.5));
  EXPECT_NE(num, Value(3.6));
  EXPECT_NE(sym, num);
  EXPECT_NE(sym, nil);
}

TEST(Value, NumericOrderingOnly) {
  SymbolTable t;
  const Value a(t.intern("a"));
  const Value b(t.intern("b"));
  EXPECT_FALSE(a.less_than(b));  // symbols are unordered
  EXPECT_TRUE(Value(1.0).less_than(Value(2.0)));
  EXPECT_FALSE(Value(2.0).less_than(Value(1.0)));
  EXPECT_FALSE(Value(1.0).less_than(a));
}

TEST(Value, Predicates) {
  EXPECT_TRUE(apply_predicate(Predicate::Eq, Value(2.0), Value(2.0)));
  EXPECT_TRUE(apply_predicate(Predicate::Ne, Value(2.0), Value(3.0)));
  EXPECT_TRUE(apply_predicate(Predicate::Lt, Value(2.0), Value(3.0)));
  EXPECT_TRUE(apply_predicate(Predicate::Le, Value(2.0), Value(2.0)));
  EXPECT_TRUE(apply_predicate(Predicate::Gt, Value(3.0), Value(2.0)));
  EXPECT_TRUE(apply_predicate(Predicate::Ge, Value(3.0), Value(3.0)));
  EXPECT_FALSE(apply_predicate(Predicate::Lt, Value(3.0), Value(2.0)));
}

TEST(Value, HashCollapsesNegativeZero) {
  EXPECT_EQ(Value(0.0).hash(), Value(-0.0).hash());
  EXPECT_EQ(Value(0.0), Value(-0.0));
}

TEST(Value, ToString) {
  SymbolTable t;
  EXPECT_EQ(Value{}.to_string(t), "nil");
  EXPECT_EQ(Value(t.intern("runway")).to_string(t), "runway");
  EXPECT_EQ(Value(42.0).to_string(t), "42");
  EXPECT_EQ(Value(2.5).to_string(t), "2.5");
}

// ---------------------------------------------------------------------------
// WmeClass / Wme
// ---------------------------------------------------------------------------

TEST(WmeClass, SlotLookup) {
  SymbolTable t;
  WmeClass cls(t.intern("region"), {t.intern("id"), t.intern("area")});
  EXPECT_EQ(cls.arity(), 2u);
  EXPECT_EQ(cls.slot_of(t.intern("id")), 0u);
  EXPECT_EQ(cls.slot_of(t.intern("area")), 1u);
  EXPECT_EQ(cls.slot_of(t.intern("missing")), kInvalidSlot);
}

TEST(WmeClass, RejectsEmpty) {
  SymbolTable t;
  EXPECT_THROW(WmeClass(t.intern("x"), {}), std::invalid_argument);
}

TEST(Wme, SlotsAndPrinting) {
  SymbolTable t;
  WmeClass cls(t.intern("region"), {t.intern("id"), t.intern("area")});
  const std::vector<Value> values = {Value(7.0), Value(100.0)};
  Wme w(0, cls.name(), values, 42);
  EXPECT_EQ(w.timetag(), 42u);
  EXPECT_EQ(w.slot(0), Value(7.0));
  EXPECT_THROW((void)w.slot(2), std::out_of_range);
  EXPECT_EQ(w.to_string(t, cls), "(region ^id 7 ^area 100)");
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

Program make_test_program() {
  Program p;
  const std::vector<std::string_view> region_attrs{"id", "class", "area"};
  const std::vector<std::string_view> frag_attrs{"region", "type"};
  p.declare_class("region", region_attrs);
  p.declare_class("fragment", frag_attrs);
  return p;
}

TEST(Program, ClassDeclarationAndLookup) {
  Program p = make_test_program();
  EXPECT_EQ(p.class_count(), 2u);
  const auto region = p.class_index(*p.symbols().find("region"));
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(p.wme_class(*region).arity(), 3u);
}

TEST(Program, RejectsDuplicateClass) {
  Program p = make_test_program();
  const std::vector<std::string_view> attrs{"a"};
  EXPECT_THROW(p.declare_class("region", attrs), std::invalid_argument);
}

TEST(Program, ProductionValidation) {
  Program p = make_test_program();
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  // Out-of-range slot must be rejected.
  AttrTest bad;
  bad.slot = 99;
  ce.tests.push_back(bad);
  EXPECT_THROW(
      p.add_production(Production(p.symbols().intern("p1"), {ce}, {})),
      std::invalid_argument);
}

TEST(Program, RejectsNegatedFirstCe) {
  Program p = make_test_program();
  ConditionElement ce;
  ce.cls = 0;
  ce.negated = true;
  EXPECT_THROW(Production(p.symbols().intern("p1"), {ce}, {}), std::invalid_argument);
}

TEST(Program, RejectsRhsCeIndexOutOfRange) {
  Program p = make_test_program();
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  std::vector<Action> rhs;
  rhs.push_back(RemoveAction{2});  // only 1 positive CE
  EXPECT_THROW(p.add_production(Production(p.symbols().intern("p1"), {ce}, std::move(rhs))),
               std::invalid_argument);
}

TEST(Program, RejectsDuplicateProductionName) {
  Program p = make_test_program();
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  p.add_production(Production(p.symbols().intern("p1"), {ce}, {}));
  EXPECT_THROW(p.add_production(Production(p.symbols().intern("p1"), {ce}, {})),
               std::invalid_argument);
}

TEST(Program, FreezeRejectsMutation) {
  Program p = make_test_program();
  p.freeze();
  const std::vector<std::string_view> attrs{"a"};
  EXPECT_THROW(p.declare_class("new-class", attrs), std::logic_error);
}

TEST(Program, SpecificityCountsTests) {
  Program p = make_test_program();
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  AttrTest t1;
  t1.slot = 0;
  t1.constant = Value(1.0);
  ce.tests.push_back(t1);
  ce.tests.push_back(t1);
  Production prod(p.symbols().intern("p1"), {ce}, {});
  EXPECT_EQ(prod.specificity(), 3u);  // class test + 2 attr tests
  EXPECT_EQ(prod.positive_ce_count(), 1u);
}

// ---------------------------------------------------------------------------
// Binding analysis
// ---------------------------------------------------------------------------

TEST(Bindings, FirstPositiveOccurrenceBinds) {
  Program p = make_test_program();
  const VariableId x = p.intern_variable("x");

  ConditionElement ce1;
  ce1.cls = 0;
  ce1.class_name = *p.symbols().find("region");
  AttrTest t;
  t.slot = 0;
  t.is_variable = true;
  t.var = x;
  ce1.tests.push_back(t);

  ConditionElement ce2;
  ce2.cls = 1;
  ce2.class_name = *p.symbols().find("fragment");
  AttrTest t2;
  t2.slot = 0;
  t2.is_variable = true;
  t2.var = x;
  ce2.tests.push_back(t2);

  Production prod(p.symbols().intern("p1"), {ce1, ce2}, {});
  const BindingAnalysis analysis = analyze_bindings(prod);
  const auto site = analysis.site(x);
  ASSERT_TRUE(site.has_value());
  EXPECT_EQ(site->positive_ce, 0u);
  EXPECT_EQ(site->slot, 0u);
}

TEST(Bindings, NonEqualityFirstOccurrenceRejected) {
  Program p = make_test_program();
  const VariableId x = p.intern_variable("x");
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  AttrTest t;
  t.slot = 0;
  t.is_variable = true;
  t.var = x;
  t.pred = Predicate::Gt;
  ce.tests.push_back(t);
  Production prod(p.symbols().intern("p1"), {ce}, {});
  EXPECT_THROW(analyze_bindings(prod), std::invalid_argument);
}

TEST(Bindings, NegativeCeVariablesAreLocal) {
  Program p = make_test_program();
  const VariableId x = p.intern_variable("x");
  const VariableId y = p.intern_variable("y");

  ConditionElement ce1;
  ce1.cls = 0;
  ce1.class_name = *p.symbols().find("region");
  AttrTest t1;
  t1.slot = 0;
  t1.is_variable = true;
  t1.var = x;
  ce1.tests.push_back(t1);

  ConditionElement ce2;
  ce2.cls = 1;
  ce2.class_name = *p.symbols().find("fragment");
  ce2.negated = true;
  AttrTest t2;
  t2.slot = 0;
  t2.is_variable = true;
  t2.var = y;  // first occurrence inside a negated CE: local
  ce2.tests.push_back(t2);

  Production prod(p.symbols().intern("p1"), {ce1, ce2}, {});
  const BindingAnalysis analysis = analyze_bindings(prod);
  EXPECT_TRUE(analysis.site(x).has_value());
  EXPECT_FALSE(analysis.site(y).has_value());
  ASSERT_TRUE(analysis.negative_locals.contains(1));
  EXPECT_EQ(analysis.negative_locals.at(1).size(), 1u);
}

TEST(Bindings, RhsUnboundVariableRejected) {
  Program p = make_test_program();
  const VariableId x = p.intern_variable("x");
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  std::vector<Action> rhs;
  MakeAction make;
  make.cls = 1;
  make.sets.emplace_back(0, Expr(VarRef{x}));
  rhs.push_back(make);
  Production prod(p.symbols().intern("p1"), {ce}, std::move(rhs));
  EXPECT_THROW(analyze_bindings(prod), std::invalid_argument);
}

TEST(Bindings, BindActionSatisfiesLaterUse) {
  Program p = make_test_program();
  const VariableId x = p.intern_variable("x");
  ConditionElement ce;
  ce.cls = 0;
  ce.class_name = *p.symbols().find("region");
  std::vector<Action> rhs;
  rhs.push_back(BindAction{x, Expr(Value(5.0))});
  MakeAction make;
  make.cls = 1;
  make.sets.emplace_back(0, Expr(VarRef{x}));
  rhs.push_back(make);
  Production prod(p.symbols().intern("p1"), {ce}, std::move(rhs));
  EXPECT_NO_THROW(analyze_bindings(prod));
}

}  // namespace
}  // namespace psmsys::ops5
