// Whole-rule-base Rete dataflow analyzer (ISSUE 5): topology export, static
// join-cost model, dependency graph, golden-file JSON determinism, and the
// AN008/AN009 whole-program lint rules with their negative controls.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/rete_static.hpp"
#include "ops5/engine.hpp"
#include "ops5/parser.hpp"
#include "ops5/wme.hpp"
#include "rete/network.hpp"
#include "spam/programs.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace psmsys::analysis {
namespace {

using ops5::ClassIndex;
using ops5::Program;
using ops5::parse_program;

// The match-determinism rule base: three shared "item" alpha patterns, real
// joins, negations, and a remove — small enough to reason about by hand,
// rich enough to exercise every analyzer code path.
constexpr const char* kJoinSrc = R"(
(literalize item k v)
(literalize pair a b)
(literalize done a)
(p join01 (item ^k 0 ^v <x>) (item ^k 1 ^v <x>) -(pair ^a <x> ^b 1)
   --> (make pair ^a <x> ^b 1))
(p join12 (item ^k 1 ^v <x>) (item ^k 2 ^v <x>) -(pair ^a <x> ^b 2)
   --> (make pair ^a <x> ^b 2))
(p join02 (item ^k 0 ^v <x>) (item ^k 2 ^v <x>) -(pair ^a <x> ^b 3)
   --> (make pair ^a <x> ^b 3))
(p chain (pair ^a <x> ^b 1) (pair ^a <x> ^b 2) -(done ^a <x>)
   --> (make done ^a <x>))
(p big (item ^v {<x> > 4}) -(pair ^a <x> ^b 9)
   --> (make pair ^a <x> ^b 9))
(p prune (done ^a <x>) (item ^k 0 ^v <x>) --> (remove 2))
)";

[[nodiscard]] std::shared_ptr<const Program> join_program() {
  return std::make_shared<const Program>(parse_program(kJoinSrc));
}

[[nodiscard]] ClassIndex cls_of(const Program& p, std::string_view name) {
  return *p.class_index(*p.symbols().find(name));
}

[[nodiscard]] bool has_code(const std::vector<Diagnostic>& diags, Code code) {
  return std::any_of(diags.begin(), diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

// ---------------------------------------------------------------------------
// Report structure
// ---------------------------------------------------------------------------

TEST(ReteStatic, ReportCountsAndSharing) {
  const auto program = join_program();
  const ReteStaticReport report = analyze_rete(*program);

  EXPECT_EQ(report.production_count, 6u);
  EXPECT_EQ(report.productions.size(), 6u);
  EXPECT_GT(report.alpha_nodes, 0u);
  EXPECT_GT(report.join_nodes, 0u);
  // join01/join02/prune share the (item ^k 0) pattern etc., so the unshared
  // compilation must be strictly larger on both levels.
  EXPECT_GT(report.alpha_nodes_unshared, report.alpha_nodes);
  EXPECT_GE(report.join_nodes_unshared, report.join_nodes);
  EXPECT_GT(report.alpha_sharing(), 1.0);
  EXPECT_GE(report.join_sharing(), 1.0);

  // Node lists are id-ordered and ids are dense.
  for (std::size_t i = 0; i < report.alphas.size(); ++i) {
    EXPECT_EQ(report.alphas[i].id, i);
  }
  for (std::size_t i = 0; i < report.joins.size(); ++i) {
    EXPECT_EQ(report.joins[i].id, i);
    EXPECT_LT(report.joins[i].alpha, report.alphas.size());
  }
}

// The report derives its unshared counts from the production paths (one
// alpha pattern and one join or negative node per CE) instead of compiling a
// second, unshared network. On every phase base they equal that compile:
// RTF 31, LCC 457, FA 16, MODEL 8.
TEST(ReteStatic, UnsharedCountsEqualAnUnsharedCompile) {
  std::vector<std::size_t> unshared;
  for (const auto build : {&spam::build_rtf_program, &spam::build_lcc_program,
                           &spam::build_fa_program, &spam::build_model_program}) {
    const auto program = build().program;
    const ReteStaticReport report = analyze_rete(*program);
    const rete::NetworkStats stats =
        rete::CompiledNetwork(*program, {.node_sharing = false}).stats();
    EXPECT_EQ(report.alpha_nodes_unshared, stats.alpha_patterns);
    EXPECT_EQ(report.join_nodes_unshared, stats.join_nodes + stats.negative_nodes);
    unshared.push_back(report.alpha_nodes_unshared);
  }
  EXPECT_EQ(unshared, (std::vector<std::size_t>{31, 457, 16, 8}));
}

TEST(ReteStatic, PerProductionCostsArePositiveAndHeuristicMatches) {
  const auto program = join_program();
  const ReteStaticReport report = analyze_rete(*program);

  const auto prods = program->productions();
  for (const auto& p : report.productions) {
    EXPECT_GT(p.match_cost, 0.0) << p.name;
    EXPECT_GT(p.beta_degree, 0u) << p.name;
    EXPECT_GE(p.beta_bound, 1.0) << p.name;
    // The recorded heuristic is exactly the PR 4 condition-count weight.
    std::uint64_t w = 1;
    for (const auto& ce : prods[p.id].lhs()) w += 2 + ce.tests.size();
    EXPECT_EQ(p.heuristic_cost, w) << p.name;
  }

  // chain joins two written classes (pair, done is negated): its beta degree
  // counts only positive joins.
  const auto chain = std::find_if(report.productions.begin(), report.productions.end(),
                                  [](const ProductionReport& p) { return p.name == "chain"; });
  ASSERT_NE(chain, report.productions.end());
  EXPECT_EQ(chain->beta_degree, 2u);
}

TEST(ReteStatic, CostVectorIsIndexedByProductionId) {
  const auto program = join_program();
  const ReteStaticReport report = analyze_rete(*program);
  const auto prods = program->productions();
  ASSERT_EQ(report.productions.size(), 6u);
  for (std::size_t i = 0; i < report.productions.size(); ++i) {
    EXPECT_EQ(report.productions[i].id, i);
    EXPECT_EQ(report.productions[i].name, program->symbols().name(prods[i].name()));
    EXPECT_GT(report.productions[i].match_cost, 0.0);
  }
}

TEST(ReteStatic, TrafficWeightsWrittenClassesHigher) {
  const auto program = join_program();
  const ReteStaticReport report = analyze_rete(*program);
  double item_traffic = 0.0, pair_traffic = 0.0;
  for (const auto& a : report.alphas) {
    if (a.cls == "item") item_traffic = a.traffic;
    if (a.cls == "pair") pair_traffic = a.traffic;
  }
  // item is only seeded externally (traffic 1 + one remove site); pair is
  // written by four productions.
  EXPECT_GT(pair_traffic, item_traffic);
}

TEST(ReteStatic, DependencyEdgesFollowWritesToReads) {
  const auto program = join_program();
  const auto edges = analyze_rete(*program).edges;
  ASSERT_FALSE(edges.empty());

  const auto id_of = [&](std::string_view name) -> std::uint32_t {
    const auto prods = program->productions();
    for (const auto& p : prods) {
      if (program->symbols().name(p.name()) == name) return p.id();
    }
    ADD_FAILURE() << "no production " << name;
    return 0;
  };
  const auto has_edge = [&](std::uint32_t from, std::uint32_t to, const char* cls,
                            bool negated) {
    return std::any_of(edges.begin(), edges.end(), [&](const DependencyEdge& e) {
      return e.from == from && e.to == to && e.class_name == cls && e.negated == negated;
    });
  };

  // join01 makes pair; chain reads pair positively; join01 also feeds its own
  // negation (the refraction guard).
  EXPECT_TRUE(has_edge(id_of("join01"), id_of("chain"), "pair", false));
  EXPECT_TRUE(has_edge(id_of("join01"), id_of("join01"), "pair", true));
  // chain makes done; prune reads done.
  EXPECT_TRUE(has_edge(id_of("chain"), id_of("prune"), "done", false));
  // prune's (remove 2) is a write to class item: every item reader gets an
  // edge from prune, and nobody else writes item.
  EXPECT_TRUE(has_edge(id_of("prune"), id_of("join01"), "item", false));
  for (const auto& e : edges) {
    if (e.class_name == "item") {
      EXPECT_EQ(e.from, id_of("prune"));
    }
  }
  // Edges are sorted by (from, to, cls, negated) with no duplicates.
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const auto& a = edges[i - 1];
    const auto& b = edges[i];
    const auto key = [](const DependencyEdge& e) {
      return std::make_tuple(e.from, e.to, e.cls, e.negated);
    };
    EXPECT_LT(key(a), key(b));
  }
}

TEST(ReteStatic, RequiresFrozenProgramAndNoFilter) {
  Program unfrozen;
  EXPECT_THROW((void)analyze_rete(unfrozen), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden file: the JSON report is byte-deterministic
// ---------------------------------------------------------------------------

TEST(ReteStatic, GoldenJsonReport) {
  const auto program = join_program();
  ReteStaticReport report = analyze_rete(*program);
  report.program = "join-small";
  const std::string text = report.to_json().dump(2) + "\n";

  const std::string path = std::string(PSMSYS_TEST_GOLDEN_DIR) + "/rete_static_small.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate by writing the EXPECTED text below to it";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), text)
      << "analyzer JSON diverged from the golden file; if the change is "
         "intended, update " << path;

  // Determinism across repeated passes (byte-for-byte).
  ReteStaticReport again = analyze_rete(*program);
  again.program = "join-small";
  EXPECT_EQ(again.to_json().dump(2) + "\n", text);
}

// ---------------------------------------------------------------------------
// Measured per-node activations vs the static report
// ---------------------------------------------------------------------------

TEST(ReteStaticCalibration, MapsMeasuredActivationsOntoProductions) {
  const auto program = join_program();
  const ReteStaticReport report = analyze_rete(*program);

  // Drive real traffic through a serial engine; its matcher IS the compiled
  // rete::Network, so topology ids and the activation gauges line up with the
  // analyzer's own compilation of the same program by construction.
  ops5::Engine engine(program, nullptr);
  util::Rng rng(83);
  for (int i = 0; i < 40; ++i) {
    engine.make_wme("item",
                    {{"k", ops5::Value(static_cast<double>(rng.next_int(0, 2)))},
                     {"v", ops5::Value(static_cast<double>(rng.next_int(0, 6)))}});
  }
  const auto result = engine.run();
  ASSERT_GT(result.firings, 0u);

  const auto& net = engine.network();
  const rete::NodeActivations acts = net.node_activations();
  ASSERT_EQ(acts.alpha.size(), report.alpha_nodes);
  ASSERT_EQ(acts.join.size(), report.join_nodes);

  // Each production path maps measured join activations onto the report row
  // of the same production id.
  const rete::NetworkTopology topo = net.compiled().topology();
  ASSERT_EQ(topo.productions.size(), report.production_count);
  std::uint64_t measured_total = 0;
  for (const auto& path : topo.productions) {
    ASSERT_LT(path.production, report.productions.size());
    EXPECT_EQ(report.productions[path.production].id, path.production);
    for (const auto node : path.nodes) {
      ASSERT_LT(node, acts.join.size());
      EXPECT_LT(topo.joins[node].alpha, acts.alpha.size());
      measured_total += acts.join[node];
    }
  }
  EXPECT_GT(measured_total, 0u);  // the run really charged nodes
}

// ---------------------------------------------------------------------------
// Gauge survival across the hot-path rewrite: the activation and live-token
// gauges must stay meaningful under node unlinking, and unlinked-node
// activations must drop to zero only for match-quiescent productions
// (cross-checked against the static verdicts below).
// ---------------------------------------------------------------------------

/// Ordered firing log plus per-production activation totals.
class GaugeListener final : public rete::MatchListener {
 public:
  explicit GaugeListener(const Program& program) : program_(program) {}

  void on_activate(const ops5::Production& production,
                   std::span<const ops5::Wme* const> wmes) override {
    log_.push_back("+" + key_of(production, wmes));
    ++activated_[production.id()];
  }
  void on_deactivate(const ops5::Production& production,
                     std::span<const ops5::Wme* const> wmes) override {
    log_.push_back("-" + key_of(production, wmes));
  }

  [[nodiscard]] const std::vector<std::string>& log() const noexcept { return log_; }
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>& activated() const noexcept {
    return activated_;
  }

 private:
  [[nodiscard]] std::string key_of(const ops5::Production& production,
                                   std::span<const ops5::Wme* const> wmes) const {
    std::string key = std::string(program_.symbols().name(production.name()));
    for (const auto* w : wmes) key += ":" + std::to_string(w->timetag());
    return key;
  }

  const Program& program_;
  std::vector<std::string> log_;
  std::map<std::uint32_t, std::uint64_t> activated_;
};

/// One join_program network driven over a fixed item trace chosen so both
/// join orders occur (right activations into empty beta memories, left
/// activations into empty alpha memories) — the events unlinking elides.
struct UnlinkRun {
  explicit UnlinkRun(const std::shared_ptr<const Program>& program)
      : listener(*program), network(*program, listener, counters) {
    const auto cls = cls_of(*program, "item");
    const auto& decl = program->wme_class(cls);
    const auto k_slot = decl.slot_of(*program->symbols().find("k"));
    const auto v_slot = decl.slot_of(*program->symbols().find("v"));
    const auto item = [&](double k, double v, ops5::TimeTag tag) {
      std::vector<ops5::Value> slots(decl.arity());
      slots[k_slot] = ops5::Value(k);
      slots[v_slot] = ops5::Value(v);
      wmes.push_back(std::make_unique<ops5::Wme>(cls, decl.name(), std::move(slots), tag));
    };
    // k=1 before any k=0 (right activation of join01's second join while its
    // beta memory is empty), k=0 before any k=2 (left activation of join02's
    // second join while its alpha memory is empty), then completions, a
    // big-production trigger, and a retraction unwinding real matches.
    item(1, 1, 1);
    item(0, 1, 2);
    item(2, 1, 3);
    item(0, 9, 4);
    item(1, 3, 5);
    for (const auto& w : wmes) network.add_wme(*w);
    network.remove_wme(*wmes[1]);
  }

  GaugeListener listener;
  util::WorkCounters counters;
  rete::Network network;
  std::vector<std::unique_ptr<ops5::Wme>> wmes;
};

TEST(ReteStaticUnlinking, GaugesSurviveUnlinking) {
  const auto program = join_program();
  UnlinkRun run(program);

  EXPECT_FALSE(run.listener.log().empty());
  EXPECT_GT(run.network.live_tokens(), 0u);
  EXPECT_TRUE(run.network.check_invariants().empty());
  const rete::NodeActivations acts = run.network.node_activations();

  // Every production that reached the conflict set has a fully-activated
  // path even under unlinking: elision only ever skips provable no-ops.
  const rete::NetworkTopology topo = run.network.compiled().topology();
  for (const auto& path : topo.productions) {
    if (!run.listener.activated().count(path.production)) continue;
    for (const auto node : path.nodes) {
      EXPECT_GT(acts.join[node], 0u)
          << "production " << path.production << " fired through silent node " << node;
    }
  }

  // prune's second join sees k=0 traffic (its alpha memory fills) but its
  // beta memory (done tokens) stays empty: unlinking elides exactly those
  // activations, to zero.
  const auto prods = program->productions();
  for (const auto& path : topo.productions) {
    if (program->symbols().name(prods[path.production].name()) != "prune") continue;
    std::uint64_t alpha_traffic = 0, join_activations = 0;
    for (const auto node : path.nodes) {
      alpha_traffic += acts.alpha[topo.joins[node].alpha];
      join_activations += acts.join[node];
    }
    EXPECT_GT(alpha_traffic, 0u);
    EXPECT_EQ(join_activations, 0u);
  }
}

// ---------------------------------------------------------------------------
// AN008 (dead production) / AN009 (transitively unproducible class)
// ---------------------------------------------------------------------------

constexpr const char* kLintDecls = R"(
(literalize seed a)
(literalize mid a)
(literalize out a)
(literalize orphan a)
(literalize note a)
)";

[[nodiscard]] Program lint_parse(const std::string& body) {
  return parse_program(std::string(kLintDecls) + body);
}

[[nodiscard]] LintOptions lint_opts(const Program& p,
                                    const std::vector<std::string>& seeds,
                                    const std::vector<std::string>& outputs) {
  LintOptions options;
  options.seed_classes.emplace();
  for (const auto& s : seeds) options.seed_classes->push_back(cls_of(p, s));
  options.output_classes.emplace();
  for (const auto& s : outputs) options.output_classes->push_back(cls_of(p, s));
  return options;
}

TEST(Lint, An008DeadProductionFires) {
  const Program p = lint_parse(R"(
(p advance (seed ^a <x>) --> (make mid ^a <x>))
(p finish (mid ^a <x>) --> (make out ^a <x>))
(p dead-end (seed ^a <x>) --> (make note ^a <x>))
)");
  const auto diags = lint_program(p, lint_opts(p, {"seed"}, {"out"}));
  ASSERT_TRUE(has_code(diags, Code::DeadProduction));
  const auto it = std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.code == Code::DeadProduction;
  });
  EXPECT_EQ(p.symbols().name(it->production), "dead-end");
  EXPECT_GT(it->loc.line, 0u) << "AN008 must carry the production's location";
  EXPECT_EQ(it->severity, Severity::Warning);
  // Exactly one: advance feeds finish, finish writes the output.
  EXPECT_EQ(std::count_if(diags.begin(), diags.end(),
                          [](const Diagnostic& d) { return d.code == Code::DeadProduction; }),
            1);
}

TEST(Lint, An008SilentWithoutDeclaredOutputs) {
  const Program p = lint_parse(R"(
(p dead-end (seed ^a <x>) --> (make note ^a <x>))
)");
  LintOptions options;
  options.seed_classes = {std::vector<ClassIndex>{cls_of(p, "seed")}};
  // output_classes unset: "nobody consumes it" proves nothing.
  EXPECT_FALSE(has_code(lint_program(p, options), Code::DeadProduction));
}

TEST(Lint, An008ExemptsOutputsWritersAndHalt) {
  const Program p = lint_parse(R"(
(p emit (seed ^a <x>) --> (make out ^a <x>))
(p log (seed ^a <x>) --> (write logged <x>))
(p stop (seed ^a 99) --> (halt))
(p consume-self (seed ^a <x>) -(note ^a <x>) --> (make note ^a <x>))
(p reader (note ^a <x>) --> (make out ^a <x>))
)");
  const auto diags = lint_program(p, lint_opts(p, {"seed"}, {"out"}));
  EXPECT_FALSE(has_code(diags, Code::DeadProduction))
      << "outputs, write/halt actions, and consumed classes are all alive";
}

TEST(Lint, An009TransitivelyUnproducibleFires) {
  // orphan HAS a producer (from-orphan's upstream is spin), but no chain
  // from the seeds reaches it: spin itself needs orphan. AN003 stays silent
  // (a producer exists); AN009 must flag the cycle's dead CEs.
  const Program p = lint_parse(R"(
(p real (seed ^a <x>) --> (make out ^a <x>))
(p spin (orphan ^a <x>) --> (make orphan ^a (compute <x> + 1)))
)");
  const auto diags = lint_program(p, lint_opts(p, {"seed"}, {"out"}));
  ASSERT_TRUE(has_code(diags, Code::UnproducibleClass));
  EXPECT_FALSE(has_code(diags, Code::UnreachableProduction))
      << "AN003 and AN009 are mutually exclusive per CE";
  const auto it = std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.code == Code::UnproducibleClass;
  });
  EXPECT_EQ(p.symbols().name(it->production), "spin");
  EXPECT_GT(it->loc.line, 0u) << "AN009 must carry the condition element's location";
}

TEST(Lint, An009SilentWhenChainReachesSeeds) {
  const Program p = lint_parse(R"(
(p advance (seed ^a <x>) --> (make mid ^a <x>))
(p finish (mid ^a <x>) --> (make out ^a <x>))
)");
  const auto diags = lint_program(p, lint_opts(p, {"seed"}, {"out"}));
  EXPECT_FALSE(has_code(diags, Code::UnproducibleClass));
}

TEST(Lint, An009SilentWithoutSeeds) {
  const Program p = lint_parse(R"(
(p spin (orphan ^a <x>) --> (make orphan ^a (compute <x> + 1)))
)");
  EXPECT_FALSE(has_code(lint_program(p), Code::UnproducibleClass));
}

// ---------------------------------------------------------------------------
// Unlinking × static verdicts: zero measured activations identify *match*
// quiescence (AN009's unproducible chains), never AN008's dataflow deadness
// ---------------------------------------------------------------------------

TEST(ReteStaticUnlinking, ZeroActivationPathsMatchStaticQuiescenceVerdicts) {
  // dead-end is AN008-dead (its output class note reaches no declared
  // output) but matches and fires like any other production; spin is AN009-
  // quiescent (orphan is unreachable from the seeds), so under unlinking its
  // entire node path must stay silent even while seed traffic flows past it.
  const auto program = std::make_shared<const Program>(lint_parse(R"(
(p advance (seed ^a <x>) --> (make mid ^a <x>))
(p finish (mid ^a <x>) --> (make out ^a <x>))
(p dead-end (seed ^a <x>) --> (make note ^a <x>))
(p spin (orphan ^a <x>) (seed ^a <x>) --> (make orphan ^a 1))
)"));
  const auto diags = lint_program(*program, lint_opts(*program, {"seed"}, {"out"}));
  ASSERT_TRUE(has_code(diags, Code::DeadProduction));
  ASSERT_TRUE(has_code(diags, Code::UnproducibleClass));
  const auto flagged = [&](Code code, std::string_view name) {
    return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
      return d.code == code && program->symbols().name(d.production) == name;
    });
  };
  ASSERT_TRUE(flagged(Code::DeadProduction, "dead-end"));
  ASSERT_TRUE(flagged(Code::UnproducibleClass, "spin"));

  ops5::Engine engine(program, nullptr);
  for (int i = 0; i < 8; ++i) {
    engine.make_wme("seed", {{"a", ops5::Value(static_cast<double>(i))}});
  }
  const auto result = engine.run();
  ASSERT_GT(result.firings, 0u);

  const auto& net = engine.network();
  EXPECT_TRUE(net.check_invariants().empty());
  const rete::NodeActivations acts = net.node_activations();
  const rete::NetworkTopology topo = net.compiled().topology();
  const auto prods = program->productions();
  for (const auto& path : topo.productions) {
    const auto name = program->symbols().name(prods[path.production].name());
    std::uint64_t total = 0;
    for (const auto node : path.nodes) total += acts.join[node];
    if (name == "spin") {
      // Match-quiescent: unlinking keeps every node on the path silent,
      // including the seed-side join that real WM traffic flows past.
      EXPECT_EQ(total, 0u) << name;
    } else {
      // AN008 deadness is a dataflow verdict; dead-end still matches.
      EXPECT_GT(total, 0u) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Negative control: the generated phase rule bases trigger neither rule
// ---------------------------------------------------------------------------

TEST(Lint, GeneratedPhasesAreCleanOfWholeProgramFindings) {
  for (const spam::PhaseSpec& phase : spam::phase_specs()) {
    const Program p = parse_program(phase.source());
    LintOptions options;
    options.seed_classes.emplace();
    for (const auto& s : phase.seeds) options.seed_classes->push_back(cls_of(p, s));
    options.output_classes.emplace();
    for (const auto& s : phase.outputs) options.output_classes->push_back(cls_of(p, s));
    const auto diags = lint_program(p, options);
    EXPECT_FALSE(has_code(diags, Code::DeadProduction)) << phase.name;
    EXPECT_FALSE(has_code(diags, Code::UnproducibleClass)) << phase.name;
  }
}

}  // namespace
}  // namespace psmsys::analysis
