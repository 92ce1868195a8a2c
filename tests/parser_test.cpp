#include <gtest/gtest.h>

#include "ops5/parser.hpp"
#include "util/rng.hpp"

namespace psmsys::ops5 {
namespace {

constexpr const char* kDecls = R"(
(literalize region id class area elong)
(literalize fragment region type score)
)";

TEST(Parser, Literalize) {
  const Program p = parse_program(kDecls);
  EXPECT_EQ(p.class_count(), 2u);
  const auto region = p.class_index(*p.symbols().find("region"));
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(p.wme_class(*region).arity(), 4u);
  EXPECT_TRUE(p.frozen());
}

TEST(Parser, SimpleProduction) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p classify-runway
   (region ^class linear ^elong > 6 ^id <r>)
   -(fragment ^region <r>)
   -->
   (make fragment ^region <r> ^type runway))
)");
  ASSERT_EQ(p.productions().size(), 1u);
  const Production& prod = p.productions()[0];
  EXPECT_EQ(p.symbols().name(prod.name()), "classify-runway");
  ASSERT_EQ(prod.lhs().size(), 2u);
  EXPECT_FALSE(prod.lhs()[0].negated);
  EXPECT_TRUE(prod.lhs()[1].negated);
  EXPECT_EQ(prod.positive_ce_count(), 1u);
  ASSERT_EQ(prod.rhs().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<MakeAction>(prod.rhs()[0]));
}

TEST(Parser, AttributeTests) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p tests
   (region ^class linear ^elong > 6 ^area { >= 10 <= 100 } ^id <> nil)
   -->
   (halt))
)");
  const auto& ce = p.productions()[0].lhs()[0];
  ASSERT_EQ(ce.tests.size(), 5u);
  EXPECT_EQ(ce.tests[0].pred, Predicate::Eq);
  EXPECT_EQ(ce.tests[1].pred, Predicate::Gt);
  EXPECT_EQ(ce.tests[2].pred, Predicate::Ge);
  EXPECT_EQ(ce.tests[3].pred, Predicate::Le);
  EXPECT_EQ(ce.tests[4].pred, Predicate::Ne);
  EXPECT_TRUE(ce.tests[4].constant.is_nil());
}

TEST(Parser, VariablePredicates) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p var-tests
   (region ^id <r> ^area <a>)
   (region ^id <> <r> ^area > <a>)
   -->
   (halt))
)");
  const auto& ce2 = p.productions()[0].lhs()[1];
  ASSERT_EQ(ce2.tests.size(), 2u);
  EXPECT_EQ(ce2.tests[0].pred, Predicate::Ne);
  EXPECT_TRUE(ce2.tests[0].is_variable);
  EXPECT_EQ(ce2.tests[1].pred, Predicate::Gt);
}

TEST(Parser, RhsActions) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p acts
   (region ^id <r> ^area <a>)
   (fragment ^region <r>)
   -->
   (bind <x> (compute <a> * 2 + 1))
   (modify 2 ^score <x>)
   (remove 1)
   (write region <r> scored <x>)
   (halt))
)");
  const auto rhs = p.productions()[0].rhs();
  ASSERT_EQ(rhs.size(), 5u);
  EXPECT_TRUE(std::holds_alternative<BindAction>(rhs[0]));
  EXPECT_TRUE(std::holds_alternative<ModifyAction>(rhs[1]));
  EXPECT_TRUE(std::holds_alternative<RemoveAction>(rhs[2]));
  EXPECT_TRUE(std::holds_alternative<WriteAction>(rhs[3]));
  EXPECT_TRUE(std::holds_alternative<HaltAction>(rhs[4]));
  EXPECT_EQ(std::get<ModifyAction>(rhs[1]).ce_index, 2u);
  EXPECT_EQ(std::get<RemoveAction>(rhs[2]).ce_index, 1u);
}

TEST(Parser, ComputeIsLeftAssociative) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p calc
   (region ^area <a>)
   -->
   (bind <x> (compute <a> - 1 - 2)))
)");
  // (a - 1) - 2: outer call's first arg is itself a call.
  const auto& bind = std::get<BindAction>(p.productions()[0].rhs()[0]);
  const auto& outer = std::get<CallExpr>(bind.expr.node);
  EXPECT_EQ(p.symbols().name(outer.function), "-");
  ASSERT_EQ(outer.args.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<CallExpr>(outer.args[0].node));
  EXPECT_EQ(std::get<Value>(outer.args[1].node), Value(2.0));
}

TEST(Parser, ExternalCall) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p ext
   (region ^id <r>)
   -->
   (make fragment ^region <r> ^score (call geom-area <r>)))
)");
  const auto& make = std::get<MakeAction>(p.productions()[0].rhs()[0]);
  const auto& call = std::get<CallExpr>(make.sets[1].second.node);
  EXPECT_EQ(p.symbols().name(call.function), "geom-area");
  ASSERT_EQ(call.args.size(), 1u);
}

TEST(Parser, ValueDisjunction) {
  const Program p = parse_program(std::string(kDecls) + R"(
(p disj
   (region ^class << linear blob 7 >> ^id <r>)
   -->
   (halt))
)");
  const auto& ce = p.productions()[0].lhs()[0];
  ASSERT_EQ(ce.tests.size(), 2u);
  ASSERT_TRUE(ce.tests[0].is_disjunction());
  ASSERT_EQ(ce.tests[0].disjunction.size(), 3u);
  EXPECT_EQ(ce.tests[0].disjunction[2], Value(7.0));
  EXPECT_TRUE(constant_test_passes(ce.tests[0], Value(7.0)));
  EXPECT_TRUE(constant_test_passes(ce.tests[0], Value(*p.symbols().find("blob"))));
  EXPECT_FALSE(constant_test_passes(ce.tests[0], Value(8.0)));
}

TEST(ParserErrors, DisjunctionRejectsVariablesAndEmpty) {
  EXPECT_THROW(parse_program("(literalize r a)(p x (r ^a << <v> >>) --> (halt))"), ParseError);
  EXPECT_THROW(parse_program("(literalize r a)(p x (r ^a << >>) --> (halt))"), ParseError);
}

TEST(Parser, CommentsAndWhitespace) {
  const Program p = parse_program(R"(
; leading comment
(literalize r a b) ; trailing comment
(p prod ; comment inside
   (r ^a 1)    ; another
   -->
   (halt))
)");
  EXPECT_EQ(p.productions().size(), 1u);
}

TEST(Parser, NegativeNumbers) {
  const Program p = parse_program(R"(
(literalize r a)
(p prod (r ^a -5) --> (make r ^a -2.5))
)");
  const auto& ce = p.productions()[0].lhs()[0];
  EXPECT_EQ(ce.tests[0].constant, Value(-5.0));
  const auto& make = std::get<MakeAction>(p.productions()[0].rhs()[0]);
  EXPECT_EQ(std::get<Value>(make.sets[0].second.node), Value(-2.5));
}

TEST(Parser, ModifyResolvesAgainstPositiveCeClass) {
  // CE numbering for modify counts positive CEs only.
  const Program p = parse_program(std::string(kDecls) + R"(
(p mod
   (region ^id <r>)
   -(fragment ^region <r> ^type runway)
   (fragment ^region <r>)
   -->
   (modify 2 ^score 1))
)");
  const auto& mod = std::get<ModifyAction>(p.productions()[0].rhs()[0]);
  EXPECT_EQ(mod.ce_index, 2u);
  // ^score resolves in class fragment (slot 2), not region.
  EXPECT_EQ(mod.sets[0].first, 2u);
}

// ------------------------------ error cases -------------------------------

TEST(ParserErrors, UndeclaredClass) {
  EXPECT_THROW(parse_program("(p x (nosuch ^a 1) --> (halt))"), ParseError);
}

TEST(ParserErrors, UnknownAttribute) {
  EXPECT_THROW(parse_program("(literalize r a)(p x (r ^nope 1) --> (halt))"), ParseError);
}

TEST(ParserErrors, UnknownTopLevelForm) {
  EXPECT_THROW(parse_program("(frobnicate x)"), ParseError);
}

TEST(ParserErrors, UnknownAction) {
  EXPECT_THROW(parse_program("(literalize r a)(p x (r ^a 1) --> (explode))"), ParseError);
}

TEST(ParserErrors, ModifyIndexOutOfRange) {
  EXPECT_THROW(parse_program("(literalize r a)(p x (r ^a 1) --> (modify 2 ^a 2))"), ParseError);
}

TEST(ParserErrors, EmptyLiteralize) {
  EXPECT_THROW(parse_program("(literalize r)"), ParseError);
}

TEST(ParserErrors, BadComputeOperator) {
  EXPECT_THROW(parse_program("(literalize r a)(p x (r ^a <v>) --> (bind <y> (compute <v> ? 1)))"),
               ParseError);
}

// Rule-pack source is untrusted: an expression nested 100,000 calls deep, or
// a compute form with 100,000 operators (each nests the tree one level
// deeper), overflowed the stack instead of raising a ParseError.
TEST(ParserErrors, ExpressionDepthIsBounded) {
  const auto program_with = [](const std::string& expr) {
    return "(literalize c v)\n(p deep (c ^v <x>) --> (make c ^v " + expr + "))";
  };
  const auto nested_calls = [](std::size_t calls) {
    std::string expr;
    for (std::size_t i = 0; i < calls; ++i) expr += "(f ";
    return expr + "1" + std::string(calls, ')');
  };
  const auto compute_chain = [](std::size_t operators) {
    std::string expr = "(compute 1";
    for (std::size_t i = 0; i < operators; ++i) expr += " + 1";
    return expr + ")";
  };
  EXPECT_THROW((void)parse_program(program_with(nested_calls(100'000))), ParseError);
  EXPECT_THROW((void)parse_program(program_with(compute_chain(100'000))), ParseError);
  // Just inside the bound of 256 levels: 255 calls around a constant, and a
  // compute form whose 254 operators put its first operand on level 256.
  EXPECT_NO_THROW((void)parse_program(program_with(nested_calls(255))));
  EXPECT_NO_THROW((void)parse_program(program_with(compute_chain(254))));
  EXPECT_THROW((void)parse_program(program_with(nested_calls(256))), ParseError);
  EXPECT_THROW((void)parse_program(program_with(compute_chain(255))), ParseError);
}

// A production's LHS is bounded at 256 condition elements: matching recurses
// once per CE, and a production of 100,000 CEs used to parse and compile,
// then overflow the stack on its first matching WME.
TEST(ParserErrors, ConditionElementCountIsBounded) {
  const auto program_with = [](std::size_t positive, const std::string& tail) {
    std::string source = "(literalize c i v)\n(p long";
    for (std::size_t k = 0; k < positive; ++k) source += " (c ^i " + std::to_string(k) + " ^v <x>)";
    return source + tail + " --> (halt))";
  };
  EXPECT_THROW((void)parse_program(program_with(100'000, "")), ParseError);
  EXPECT_NO_THROW((void)parse_program(program_with(256, "")));
  EXPECT_NO_THROW((void)parse_program(program_with(255, " -(c ^v <x>)")));
  // The first CE past the bound is the error, negated or not.
  try {
    (void)parse_program(program_with(256, " -(c ^v <x>)"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("more than 256 condition elements"), std::string::npos);
  }
  EXPECT_THROW((void)parse_program(program_with(257, "")), ParseError);
}

TEST(ParserErrors, ReportsLineNumber) {
  try {
    (void)parse_program("(literalize r a)\n\n(p x (r ^zzz 1) --> (halt))");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(ParserErrors, UnterminatedForm) {
  EXPECT_THROW(parse_program("(literalize r a"), ParseError);
}

TEST(ParserErrors, ReportsColumn) {
  try {
    (void)parse_program("(literalize r a)\n(p x (r ^zzz 1) --> (halt))");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 9);  // the '^' of ^zzz
  }
}

// ------------------------- source locations -------------------------------

TEST(ParserLocations, ProductionAndCesCarryLineAndColumn) {
  // Column positions feed the linter's diagnostics; productions anchor at
  // their name, condition elements at their class symbol.
  const Program program = parse_program(
      "(literalize r a)\n"
      "(literalize f b)\n"
      "\n"
      "(p first\n"
      "   (r ^a <x>)\n"
      "   -(f ^b <x>)\n"
      "   -->\n"
      "   (make f ^b <x>))\n"
      "\n"
      "(p second (r ^a 1) --> (halt))\n");
  ASSERT_EQ(program.productions().size(), 2u);

  const Production& first = program.productions()[0];
  EXPECT_EQ(first.location().line, 4);
  EXPECT_EQ(first.location().column, 4);
  ASSERT_EQ(first.lhs().size(), 2u);
  EXPECT_EQ(first.lhs()[0].loc.line, 5);
  EXPECT_EQ(first.lhs()[0].loc.column, 5);
  EXPECT_EQ(first.lhs()[1].loc.line, 6);
  EXPECT_EQ(first.lhs()[1].loc.column, 6);  // past the leading '-'

  const Production& second = program.productions()[1];
  EXPECT_EQ(second.location().line, 10);
  ASSERT_EQ(second.lhs().size(), 1u);
  EXPECT_EQ(second.lhs()[0].loc.line, 10);
}

TEST(ParserLocations, ProgrammaticProductionsDefaultToUnknown) {
  const SourceLoc loc;
  EXPECT_FALSE(loc.known());
  const Program program = parse_program("(literalize r a)\n(p x (r ^a 1) --> (halt))");
  EXPECT_TRUE(program.productions()[0].location().known());
}

// ------------------------- robustness property ----------------------------

/// Random token soup must either parse or throw ParseError /
/// invalid_argument — never crash, hang, or corrupt state.
class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, GarbageNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  static const char* tokens[] = {"(",      ")",    "{",     "}",      "p",      "literalize",
                                 "region", "^id",  "^kind", "<r>",    "<>",     "<<",
                                 ">>",     "-->",  "-",     "make",   "remove", "modify",
                                 "halt",   "bind", "write", "compute", "42",    "-3.5",
                                 "nil",    "yes",  "<",     ">",      "=",      ";comment\n"};
  for (int round = 0; round < 40; ++round) {
    std::string src;
    const int len = static_cast<int>(rng.next_int(1, 60));
    for (int i = 0; i < len; ++i) {
      src += tokens[rng.next_below(std::size(tokens))];
      src += ' ';
    }
    try {
      (void)parse_program(src);
    } catch (const ParseError&) {
    } catch (const std::invalid_argument&) {
    }
    // Any other exception type (or a crash) fails the test.
  }
}

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  for (int round = 0; round < 40; ++round) {
    std::string src;
    const int len = static_cast<int>(rng.next_int(0, 120));
    for (int i = 0; i < len; ++i) {
      src += static_cast<char>(rng.next_int(32, 126));
    }
    try {
      (void)parse_program(src);
    } catch (const ParseError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace psmsys::ops5
