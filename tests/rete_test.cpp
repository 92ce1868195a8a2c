#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ops5/parser.hpp"
#include "rete/naive.hpp"
#include "rete/network.hpp"
#include "util/rng.hpp"

namespace psmsys::rete {
namespace {

using ops5::Program;
using ops5::Value;
using ops5::Wme;

/// Records the current match set as (production-name, timetag-list) keys.
class RecordingListener final : public MatchListener {
 public:
  explicit RecordingListener(const Program& program) : program_(program) {}

  void on_activate(const ops5::Production& production,
                   std::span<const Wme* const> wmes) override {
    const auto [it, inserted] = matches_.insert(key_of(production, wmes));
    ASSERT_TRUE(inserted) << "duplicate activation";
    ++activations_;
  }

  void on_deactivate(const ops5::Production& production,
                     std::span<const Wme* const> wmes) override {
    const auto erased = matches_.erase(key_of(production, wmes));
    ASSERT_EQ(erased, 1u) << "deactivation of unknown match";
    ++deactivations_;
  }

  [[nodiscard]] const std::set<std::string>& matches() const noexcept { return matches_; }
  [[nodiscard]] int activations() const noexcept { return activations_; }
  [[nodiscard]] int deactivations() const noexcept { return deactivations_; }
  void reset() { matches_.clear(); }

 private:
  [[nodiscard]] std::string key_of(const ops5::Production& production,
                                   std::span<const Wme* const> wmes) const {
    std::string key = program_.symbols().name(production.name());
    for (const auto* w : wmes) key += ":" + std::to_string(w->timetag());
    return key;
  }

  const Program& program_;
  std::set<std::string> matches_;
  int activations_ = 0;
  int deactivations_ = 0;
};

/// Owns WMEs for direct network testing (no engine involved).
class WmeFactory {
 public:
  explicit WmeFactory(const Program& program) : program_(program) {}

  const Wme& make(std::string_view class_name, std::vector<Value> slots) {
    const auto cls = program_.class_index(*program_.symbols().find(class_name));
    const auto& decl = program_.wme_class(*cls);
    slots.resize(decl.arity());
    wmes_.push_back(std::make_unique<Wme>(*cls, decl.name(), std::move(slots), next_tag_++));
    return *wmes_.back();
  }

  [[nodiscard]] Value sym(std::string_view name) const {
    return Value(*program_.symbols().find(name));
  }

 private:
  const Program& program_;
  std::vector<std::unique_ptr<Wme>> wmes_;
  ops5::TimeTag next_tag_ = 1;
};

Program two_ce_program() {
  return ops5::parse_program(R"(
(literalize region id class elong)
(literalize fragment region type)
(p match-pair
   (region ^id <r> ^class linear)
   (fragment ^region <r> ^type runway)
   -->
   (halt))
)");
}

// ---------------------------------------------------------------------------
// Basic join behaviour
// ---------------------------------------------------------------------------

TEST(ReteNetwork, JoinActivatesOnConsistentPair) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  EXPECT_TRUE(listener.matches().empty());
  net.add_wme(wmes.make("fragment", {Value(1.0), wmes.sym("runway")}));
  EXPECT_EQ(listener.matches().size(), 1u);
  EXPECT_TRUE(listener.matches().contains("match-pair:1:2"));
}

TEST(ReteNetwork, JoinRejectsInconsistentBinding) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  net.add_wme(wmes.make("fragment", {Value(2.0), wmes.sym("runway")}));  // id mismatch
  EXPECT_TRUE(listener.matches().empty());
}

TEST(ReteNetwork, OrderOfAdditionIrrelevant) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("fragment", {Value(3.0), wmes.sym("runway")}));
  net.add_wme(wmes.make("region", {Value(3.0), wmes.sym("linear")}));
  EXPECT_EQ(listener.matches().size(), 1u);
}

TEST(ReteNetwork, RemovalRetractsDownstreamMatches) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  const Wme& region = wmes.make("region", {Value(1.0), wmes.sym("linear")});
  net.add_wme(region);
  net.add_wme(wmes.make("fragment", {Value(1.0), wmes.sym("runway")}));
  ASSERT_EQ(listener.matches().size(), 1u);
  net.remove_wme(region);
  EXPECT_TRUE(listener.matches().empty());
  EXPECT_EQ(listener.deactivations(), 1);
}

// The parser bounds a production at 256 CEs. At the bound, with the WMEs
// arriving last CE first, the final add (the first CE's WME) left-activates
// all 255 joins below it, one recursion level each; retracting that WME
// unwinds the whole token chain.
TEST(ReteNetwork, ProductionAtTheParserBoundMatchesAndRetracts) {
  std::string source = "(literalize c i v)\n(p long";
  for (int k = 0; k < 256; ++k) source += " (c ^i " + std::to_string(k) + " ^v <x>)";
  const Program p = ops5::parse_program(source + " --> (halt))");
  ASSERT_EQ(p.productions()[0].lhs().size(), 256u);
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  const Wme* first_ce = nullptr;
  for (int k = 255; k >= 0; --k) {
    const Wme& wme = wmes.make("c", {Value(static_cast<double>(k)), Value(1.0)});
    net.add_wme(wme);
    first_ce = &wme;
  }
  EXPECT_EQ(listener.matches().size(), 1u);
  EXPECT_TRUE(net.check_invariants().empty());

  net.remove_wme(*first_ce);
  EXPECT_TRUE(listener.matches().empty());
  EXPECT_EQ(listener.deactivations(), 1);
  EXPECT_TRUE(net.check_invariants().empty());
}

TEST(ReteNetwork, CrossProductMatches) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  for (int i = 0; i < 3; ++i) {
    net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  }
  net.add_wme(wmes.make("fragment", {Value(1.0), wmes.sym("runway")}));
  // Each of the 3 identical-id regions pairs with the fragment.
  EXPECT_EQ(listener.matches().size(), 3u);
}

TEST(ReteNetwork, PredicateJoinTests) {
  const Program p = ops5::parse_program(R"(
(literalize item id size)
(p bigger
   (item ^id <a> ^size <s>)
   (item ^id <> <a> ^size > <s>)
   -->
   (halt))
)");
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("item", {Value(1.0), Value(10.0)}));
  net.add_wme(wmes.make("item", {Value(2.0), Value(20.0)}));
  // Only (1, 2) satisfies size > size; (2, 1) does not.
  EXPECT_EQ(listener.matches().size(), 1u);
  EXPECT_TRUE(listener.matches().contains("bigger:1:2"));
}

TEST(ReteNetwork, IntraCeVariableEquality) {
  const Program p = ops5::parse_program(R"(
(literalize pair x y)
(p same (pair ^x <v> ^y <v>) --> (halt))
)");
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("pair", {Value(3.0), Value(3.0)}));
  net.add_wme(wmes.make("pair", {Value(3.0), Value(4.0)}));
  EXPECT_EQ(listener.matches().size(), 1u);
}

TEST(ReteNetwork, ValueDisjunction) {
  const Program p = ops5::parse_program(R"(
(literalize region id class elong)
(p linearish (region ^class << runway taxiway >> ^id <r>) --> (halt))
)");
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("runway")}));
  net.add_wme(wmes.make("region", {Value(2.0), wmes.sym("taxiway")}));
  net.add_wme(wmes.make("region", {Value(3.0), Value(99.0)}));  // not in the disjunction
  EXPECT_EQ(listener.matches().size(), 2u);
}

TEST(ReteNetwork, DisjunctionSharedAcrossProductions) {
  const Program p = ops5::parse_program(R"(
(literalize region id class elong)
(p p1 (region ^class << runway taxiway >> ^id <r>) --> (halt))
(p p2 (region ^class << runway taxiway >> ^elong <e>) --> (halt))
)");
  RecordingListener listener(p);
  util::WorkCounters counters;
  const Network net(p, listener, counters);
  EXPECT_EQ(net.compiled().stats().alpha_patterns, 1u);
}

// ---------------------------------------------------------------------------
// Negation
// ---------------------------------------------------------------------------

Program negation_program() {
  return ops5::parse_program(R"(
(literalize region id class elong)
(literalize fragment region type)
(p unclassified
   (region ^id <r>)
   -(fragment ^region <r>)
   -->
   (halt))
)");
}

TEST(ReteNegation, AbsenceSatisfies) {
  const Program p = negation_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0)}));
  EXPECT_EQ(listener.matches().size(), 1u);
}

TEST(ReteNegation, BlockerRetractsMatch) {
  const Program p = negation_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0)}));
  const Wme& blocker = wmes.make("fragment", {Value(1.0)});
  net.add_wme(blocker);
  EXPECT_TRUE(listener.matches().empty());
  net.remove_wme(blocker);
  EXPECT_EQ(listener.matches().size(), 1u);  // unblocked again
}

TEST(ReteNegation, BlockerForOtherBindingIrrelevant) {
  const Program p = negation_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0)}));
  net.add_wme(wmes.make("fragment", {Value(99.0)}));  // different region id
  EXPECT_EQ(listener.matches().size(), 1u);
}

TEST(ReteNegation, BlockerBeforePositive) {
  const Program p = negation_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("fragment", {Value(1.0)}));
  net.add_wme(wmes.make("region", {Value(1.0)}));
  EXPECT_TRUE(listener.matches().empty());
}

TEST(ReteNegation, MultipleBlockersAllMustGo) {
  const Program p = negation_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0)}));
  const Wme& b1 = wmes.make("fragment", {Value(1.0)});
  const Wme& b2 = wmes.make("fragment", {Value(1.0)});
  net.add_wme(b1);
  net.add_wme(b2);
  EXPECT_TRUE(listener.matches().empty());
  net.remove_wme(b1);
  EXPECT_TRUE(listener.matches().empty());
  net.remove_wme(b2);
  EXPECT_EQ(listener.matches().size(), 1u);
}

TEST(ReteNegation, ConsecutiveNegations) {
  const Program p = ops5::parse_program(R"(
(literalize region id class elong)
(literalize fragment region type)
(literalize veto region why)
(p lonely
   (region ^id <r>)
   -(fragment ^region <r>)
   -(veto ^region <r>)
   -->
   (halt))
)");
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0)}));
  ASSERT_EQ(listener.matches().size(), 1u);
  const Wme& veto = wmes.make("veto", {Value(1.0)});
  net.add_wme(veto);
  EXPECT_TRUE(listener.matches().empty());
  net.remove_wme(veto);
  EXPECT_EQ(listener.matches().size(), 1u);
  const Wme& frag = wmes.make("fragment", {Value(1.0)});
  net.add_wme(frag);
  EXPECT_TRUE(listener.matches().empty());
}

TEST(ReteNegation, TrailingNegationFeedsProductionNode) {
  const Program p = ops5::parse_program(R"(
(literalize region id class elong)
(literalize fragment region type)
(p no-frag
   (region ^id <r>)
   (region ^id <r> ^class linear)
   -(fragment ^region <r>)
   -->
   (halt))
)");
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  // The self-join matches (region matches both CEs).
  EXPECT_EQ(listener.matches().size(), 1u);
  net.add_wme(wmes.make("fragment", {Value(1.0)}));
  EXPECT_TRUE(listener.matches().empty());
}

// ---------------------------------------------------------------------------
// Node sharing & stats
// ---------------------------------------------------------------------------

TEST(ReteSharing, AlphaPatternsSharedAcrossProductions) {
  const auto src = R"(
(literalize region id class elong)
(p p1 (region ^class linear ^id <r>) --> (halt))
(p p2 (region ^class linear ^elong <e>) --> (halt))
)";
  const Program p = ops5::parse_program(src);
  RecordingListener listener(p);
  util::WorkCounters counters;
  const Network shared(p, listener, counters, {.node_sharing = true});
  const Network unshared(p, listener, counters, {.node_sharing = false});
  // Both productions test only ^class linear at the alpha level.
  EXPECT_EQ(shared.compiled().stats().alpha_patterns, 1u);
  EXPECT_EQ(unshared.compiled().stats().alpha_patterns, 2u);
  EXPECT_EQ(shared.compiled().stats().production_nodes, 2u);
}

TEST(ReteSharing, CommonPrefixSharesJoins) {
  const auto src = R"(
(literalize region id class elong)
(literalize fragment region type)
(p p1
   (region ^id <r> ^class linear)
   (fragment ^region <r> ^type runway)
   --> (halt))
(p p2
   (region ^id <r> ^class linear)
   (fragment ^region <r> ^type runway)
   (fragment ^region <r> ^type taxiway)
   --> (halt))
)";
  const Program p = ops5::parse_program(src);
  RecordingListener listener(p);
  util::WorkCounters counters;
  const Network shared(p, listener, counters, {.node_sharing = true});
  const Network unshared(p, listener, counters, {.node_sharing = false});
  EXPECT_LT(shared.compiled().stats().join_nodes, unshared.compiled().stats().join_nodes);
  EXPECT_EQ(shared.compiled().stats().production_nodes, 2u);
}

TEST(ReteSharing, SharedAndUnsharedAgreeOnMatches) {
  const Program p = two_ce_program();
  RecordingListener shared_listener(p);
  RecordingListener unshared_listener(p);
  util::WorkCounters c1;
  util::WorkCounters c2;
  Network shared(p, shared_listener, c1, {.node_sharing = true});
  Network unshared(p, unshared_listener, c2, {.node_sharing = false});
  WmeFactory wmes(p);

  const Wme& r = wmes.make("region", {Value(1.0), wmes.sym("linear")});
  const Wme& f = wmes.make("fragment", {Value(1.0), wmes.sym("runway")});
  for (Network* net : {&shared, &unshared}) {
    net->add_wme(r);
    net->add_wme(f);
  }
  EXPECT_EQ(shared_listener.matches(), unshared_listener.matches());
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

TEST(ReteInstrumentation, CountersAccumulate) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  net.add_wme(wmes.make("fragment", {Value(1.0), wmes.sym("runway")}));
  EXPECT_GT(counters.match_cost, 0u);
  EXPECT_GT(counters.alpha_tests, 0u);
  EXPECT_GT(counters.join_probes, 0u);
  EXPECT_GT(counters.tokens_created, 0u);
}

TEST(ReteInstrumentation, ChunksRecordedPerAlphaPattern) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  const auto chunks = net.take_chunks();
  EXPECT_FALSE(chunks.empty());
  // take_chunks drains.
  EXPECT_TRUE(net.take_chunks().empty());
}

TEST(ReteInstrumentation, ChunkCostsSumBelowTotalMatchCost) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  net.add_wme(wmes.make("region", {Value(1.0), wmes.sym("linear")}));
  net.add_wme(wmes.make("fragment", {Value(1.0), wmes.sym("runway")}));
  util::WorkUnits total = 0;
  for (auto c : net.take_chunks()) total += c;
  EXPECT_LE(total, counters.match_cost);
  EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------------
// Hashed alpha dispatch: one class whose patterns cover every dispatch case.
// Built in memory because the parser has no spelling for a NaN constant.
// ---------------------------------------------------------------------------

/// Class `obj ^kind ^size ^tag`, one single-CE production per pattern, so a
/// production's matches are exactly its alpha memory's contents. Dispatch
/// order (compile order) is the production order below.
Program dispatch_program() {
  using ops5::AttrTest;
  using ops5::Predicate;
  Program p;
  const std::string_view attrs[] = {"kind", "size", "tag"};
  const ops5::ClassIndex cls = p.declare_class("obj", attrs);
  const ops5::Symbol obj = p.symbols().intern("obj");
  const Value a(p.symbols().intern("a"));
  const Value b(p.symbols().intern("b"));
  const auto constant = [](ops5::SlotIndex slot, Predicate pred, Value v) {
    AttrTest t;
    t.slot = slot;
    t.pred = pred;
    t.constant = v;
    return t;
  };
  const auto add = [&](std::string_view name, std::vector<AttrTest> tests) {
    ops5::ConditionElement ce;
    ce.cls = cls;
    ce.class_name = obj;
    ce.tests = std::move(tests);
    p.add_production(ops5::Production(p.symbols().intern(name), {std::move(ce)}, {}));
  };
  AttrTest bind_kind;  // ^kind <x>
  bind_kind.slot = 0;
  bind_kind.is_variable = true;
  bind_kind.var = p.intern_variable("x");
  AttrTest same_tag = bind_kind;  // ^tag <x>: an intra-CE test
  same_tag.slot = 2;
  AttrTest either_tag;  // ^tag << a b >>
  either_tag.slot = 2;
  either_tag.disjunction = {a, b};

  add("kind-a", {constant(0, Predicate::Eq, a)});      // bucket: kind
  add("kind-b", {constant(0, Predicate::Eq, b)});      // bucket: kind
  add("size-3", {constant(1, Predicate::Eq, Value(3.0))});  // bucket: size
  add("big", {constant(1, Predicate::Gt, Value(2.0))});    // unbucketed: not Eq
  add("same", {bind_kind, same_tag});                       // unbucketed: intra only
  add("either", {either_tag});                              // unbucketed: disjunction
  add("nan", {constant(1, Predicate::Eq, Value(std::nan("")))});  // never passes
  add("negzero", {constant(1, Predicate::Eq, Value(-0.0))});     // bucket: size 0
  add("kind-a-size-3", {constant(1, Predicate::Eq, Value(3.0)),  // sorted: kind first
                        constant(0, Predicate::Eq, a)});
  add("ne-then-eq", {constant(0, Predicate::Ne, b),             // unbucketed: Ne first
                     constant(1, Predicate::Eq, Value(3.0))});
  p.freeze();
  return p;
}

TEST(ReteAlphaDispatch, BucketsChargeLikeTheLinearScan) {
  const Program p = dispatch_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  ASSERT_EQ(net.compiled().stats().alpha_patterns, 10u);
  WmeFactory wmes(p);
  const Value a = wmes.sym("a");
  const Value b = wmes.sym("b");
  const Value nil;  // neither a nor b

  struct Add {
    std::vector<Value> slots;
    /// Dispatch positions whose pattern fails its first test: their chunk is
    /// one alpha test, visited or skipped.
    std::vector<std::size_t> fail_first;
  };
  const Add adds[] = {
      {{a, Value(3.0), a}, {1, 6, 7}},
      {{b, Value(0.0), nil}, {0, 2, 3, 4, 6, 8, 9}},
      {{nil, Value(std::nan("")), b}, {0, 1, 2, 3, 4, 6, 7, 8}},
      {{a, Value(-0.0), nil}, {1, 2, 3, 4, 6}},
  };
  for (const Add& add : adds) {
    net.add_wme(wmes.make("obj", add.slots));
    const auto chunks = net.take_chunks();
    ASSERT_EQ(chunks.size(), 10u);  // one chunk per pattern per add
    for (const std::size_t pos : add.fail_first) {
      EXPECT_EQ(chunks[pos], util::cost::kAlphaTest) << pos;
    }
  }
  // Per add, the tests the linear scan evaluates: (1,1,1,1,1,1,1,1,2,2),
  // (1 x 10), (1 x 9, then 2 for ne-then-eq), (1 x 8, 2, 2).
  EXPECT_EQ(counters.alpha_tests, 12u + 10u + 11u + 12u);
  EXPECT_EQ(counters.alpha_activations, 12u);
  const std::set<std::string> expected = {
      "kind-a:1", "size-3:1", "big:1",    "same:1",    "either:1", "kind-a-size-3:1",
      "ne-then-eq:1", "kind-b:2", "negzero:2", "either:3", "kind-a:4", "negzero:4"};
  EXPECT_EQ(listener.matches(), expected);
  EXPECT_TRUE(net.check_invariants().empty());
}

TEST(ReteInstrumentation, ClearRetainsStructureDropsState) {
  const Program p = two_ce_program();
  RecordingListener listener(p);
  util::WorkCounters counters;
  Network net(p, listener, counters);
  WmeFactory wmes(p);

  const Wme& r = wmes.make("region", {Value(1.0), wmes.sym("linear")});
  net.add_wme(r);
  net.add_wme(wmes.make("fragment", {Value(1.0), wmes.sym("runway")}));
  net.clear();
  listener.reset();

  // Same WMEs can be re-added and match again.
  const Wme& r2 = wmes.make("region", {Value(5.0), wmes.sym("linear")});
  const Wme& f2 = wmes.make("fragment", {Value(5.0), wmes.sym("runway")});
  net.add_wme(r2);
  net.add_wme(f2);
  EXPECT_EQ(listener.matches().size(), 1u);
}

// ---------------------------------------------------------------------------
// Property test: Rete == naive oracle under random add/remove sequences
// ---------------------------------------------------------------------------

/// Listener variant tolerating out-of-order reporting (set semantics only).
class SetListener final : public MatchListener {
 public:
  explicit SetListener(const Program& program) : program_(program) {}

  void on_activate(const ops5::Production& production,
                   std::span<const Wme* const> wmes) override {
    matches_.insert(key_of(production, wmes));
  }
  void on_deactivate(const ops5::Production& production,
                     std::span<const Wme* const> wmes) override {
    matches_.erase(key_of(production, wmes));
  }
  [[nodiscard]] const std::set<std::string>& matches() const noexcept { return matches_; }

 private:
  [[nodiscard]] std::string key_of(const ops5::Production& production,
                                   std::span<const Wme* const> wmes) const {
    std::string key = program_.symbols().name(production.name());
    for (const auto* w : wmes) key += ":" + std::to_string(w->timetag());
    return key;
  }
  const Program& program_;
  std::set<std::string> matches_;
};

/// A small random rule base over two classes with joins, predicates, and
/// negations, plus a random WM mutation trace.
class OraclePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OraclePropertyTest, ReteMatchesNaiveOracle) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);

  // Random program text.
  std::string src = "(literalize a k v w)\n(literalize b k v w)\n";
  const int n_prods = static_cast<int>(rng.next_int(2, 6));
  for (int i = 0; i < n_prods; ++i) {
    src += "(p prod" + std::to_string(i) + "\n";
    const int n_ces = static_cast<int>(rng.next_int(1, 3));
    for (int c = 0; c < n_ces; ++c) {
      const bool negated = c > 0 && rng.next_bool(0.3);
      const char* cls = rng.next_bool(0.5) ? "a" : "b";
      src += std::string("   ") + (negated ? "-" : "") + "(" + cls;
      if (rng.next_bool(0.2)) {
        src += " ^k << " + std::to_string(rng.next_int(0, 2)) + " " +
               std::to_string(rng.next_int(0, 2)) + " >>";
      } else if (rng.next_bool(0.75)) {
        src += " ^k " + std::to_string(rng.next_int(0, 2));
      }
      if (c == 0) {
        src += " ^v <x>";
      } else if (rng.next_bool(0.7)) {
        const char* preds[] = {"", "<> ", "> ", "< "};
        src += std::string(" ^v ") + preds[rng.next_below(4)] + "<x>";
      }
      if (rng.next_bool(0.3)) {
        src += " ^w <y" + std::to_string(c) + "> ^v <> <y" + std::to_string(c) + ">";
      }
      src += ")\n";
    }
    src += "   -->\n   (halt))\n";
  }
  SCOPED_TRACE(src);

  const Program p = ops5::parse_program(src);
  SetListener rete_listener(p);
  SetListener naive_listener(p);
  util::WorkCounters rete_counters;
  util::WorkCounters naive_counters;
  Network rete(p, rete_listener, rete_counters);
  NaiveMatcher naive(p, naive_listener, naive_counters);

  // Random WM trace.
  std::vector<std::unique_ptr<Wme>> owned;
  std::vector<const Wme*> live;
  ops5::TimeTag tag = 1;
  for (int step = 0; step < 120; ++step) {
    const bool remove = !live.empty() && rng.next_bool(0.35);
    if (remove) {
      const auto idx = rng.next_below(live.size());
      const Wme* w = live[idx];
      live[idx] = live.back();
      live.pop_back();
      rete.remove_wme(*w);
      naive.remove_wme(*w);
    } else {
      const auto cls = static_cast<ops5::ClassIndex>(rng.next_below(2));
      std::vector<Value> slots{Value(static_cast<double>(rng.next_int(0, 2))),
                               Value(static_cast<double>(rng.next_int(0, 4))),
                               Value(static_cast<double>(rng.next_int(0, 2)))};
      const auto cls_sym = *p.symbols().find(cls == 0 ? "a" : "b");
      owned.push_back(std::make_unique<Wme>(cls, cls_sym, std::move(slots), tag++));
      live.push_back(owned.back().get());
      rete.add_wme(*owned.back());
      naive.add_wme(*owned.back());
    }
    ASSERT_EQ(rete_listener.matches(), naive_listener.matches()) << "diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, OraclePropertyTest, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Join-index keys: NaN equals nothing, yet its index entries must be found
// ---------------------------------------------------------------------------

// NaN-valued WMEs through an indexed positive join (pair) and an indexed
// negative node (lonely), added and removed in both orders. Every NaN files
// under one index key, so each removal finds its entry; a NaN key still
// joins nothing, so the naive oracle agrees at every step.
TEST(ReteIndexKeys, NanValuedWmesAddAndRemoveThroughIndexedJoins) {
  const Program p = ops5::parse_program(R"(
(literalize val n)
(literalize probe n)
(p pair (val ^n <v>) (probe ^n <v>) --> (halt))
(p lonely (val ^n <v>) -(probe ^n <v>) --> (halt))
)");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool vals_first : {true, false}) {
    SCOPED_TRACE(vals_first ? "vals first" : "probes first");
    SetListener rete_listener(p);
    SetListener naive_listener(p);
    util::WorkCounters rete_counters;
    util::WorkCounters naive_counters;
    Network rete(p, rete_listener, rete_counters);
    NaiveMatcher naive(p, naive_listener, naive_counters);
    WmeFactory wmes(p);
    const auto batch = [&](std::string_view cls) {
      return std::vector<const Wme*>{&wmes.make(cls, {Value(nan)}), &wmes.make(cls, {Value(-nan)}),
                                     &wmes.make(cls, {Value(1.0)})};
    };
    const std::vector<const Wme*> first = batch(vals_first ? "val" : "probe");
    const std::vector<const Wme*> second = batch(vals_first ? "probe" : "val");
    int step = 0;
    const auto check = [&] {
      EXPECT_EQ(rete_listener.matches(), naive_listener.matches()) << "step " << step;
      const auto violations = rete.check_invariants();
      EXPECT_TRUE(violations.empty()) << "step " << step << ": " << violations.front();
      ++step;
    };
    for (const auto* group : {&first, &second}) {
      for (const Wme* w : *group) {
        rete.add_wme(*w);
        naive.add_wme(*w);
        check();
      }
    }
    // Only the 1.0s pair up, and they block each other's absence test.
    const int val = vals_first ? 1 : 4;
    const int probe = vals_first ? 4 : 1;
    EXPECT_EQ(rete_listener.matches(),
              (std::set<std::string>{"pair:" + std::to_string(val + 2) + ":" +
                                         std::to_string(probe + 2),
                                     "lonely:" + std::to_string(val),
                                     "lonely:" + std::to_string(val + 1)}));
    for (const auto* group : {&first, &second}) {
      for (const Wme* w : *group) {
        rete.remove_wme(*w);
        naive.remove_wme(*w);
        check();
      }
    }
    EXPECT_TRUE(rete_listener.matches().empty());
    EXPECT_EQ(rete.live_tokens(), 0U);
  }
}

}  // namespace
}  // namespace psmsys::rete
