#include "analysis/rete_static.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/footprint.hpp"
#include "rete/network.hpp"

namespace psmsys::analysis {

namespace {

using ops5::ClassIndex;
using ops5::Production;
using ops5::Program;
using rete::NetworkTopology;

// --- selectivity estimates (DESIGN.md section 13) --------------------------
//
// Textbook per-test guesses, not measurements: an equality test against a
// constant keeps ~1/4 of WMEs, ordering/intra-CE/disjunction tests ~1/2.
// Joins keep ~1/4 of pairs per consistency test, 1.0 when unconstrained
// (cross product). Floors keep long chains from underflowing to "free".

constexpr double kConstSel = 0.25;
constexpr double kOtherSel = 0.5;
constexpr double kJoinSel = 0.25;
constexpr double kAlphaSelFloor = 1.0 / 256.0;
constexpr double kJoinSelFloor = 1.0 / 64.0;
constexpr double kLeftFloor = 1.0 / 16.0;

[[nodiscard]] double alpha_selectivity(const NetworkTopology::AlphaNode& a) {
  const double s = std::pow(kConstSel, a.const_tests) *
                   std::pow(kOtherSel, a.intra_tests + a.disj_tests);
  return std::max(s, kAlphaSelFloor);
}

[[nodiscard]] double join_selectivity(const NetworkTopology::JoinNode& j) {
  if (j.tests == 0) return 1.0;
  return std::max(std::pow(kJoinSel, j.tests), kJoinSelFloor);
}

[[nodiscard]] std::uint32_t alpha_tests(const NetworkTopology::AlphaNode& a) noexcept {
  return a.const_tests + a.intra_tests + a.disj_tests;
}

/// The condition-count heuristic (1 + sum of 2 + tests per CE), reported
/// beside the analyzer's estimate as the baseline it is judged against.
[[nodiscard]] std::uint64_t heuristic_weight(const Production& p) {
  std::uint64_t w = 1;
  for (const auto& ce : p.lhs()) w += 2 + ce.tests.size();
  return w;
}

/// Class fan-in: 1 (external seeding is always possible) + RHS write sites
/// across the rule base. A modify counts twice — it is a remove + add in
/// Rete traffic terms.
[[nodiscard]] std::vector<double> class_traffic(const Program& program,
                                                const std::vector<ProductionFootprint>& fps) {
  std::vector<double> traffic(program.class_count(), 1.0);
  for (const auto& fp : fps) {
    for (const auto& access : fp.accesses) {
      if (!is_write(access.kind)) continue;
      traffic[access.cls] += access.kind == AccessKind::Modify ? 2.0 : 1.0;
    }
  }
  return traffic;
}

[[nodiscard]] std::string class_name(const Program& program, ClassIndex cls) {
  return std::string(program.symbols().name(program.wme_class(cls).name()));
}

/// Round to 6 significant decimal digits so the JSON stays readable and the
/// golden file is insensitive to refactors that only reassociate arithmetic.
[[nodiscard]] double rounded(double v) {
  if (v == 0.0) return 0.0;
  const double mag = std::pow(10.0, 5 - std::floor(std::log10(std::fabs(v))));
  return std::round(v * mag) / mag;
}

struct CostResult {
  double cost = 1.0;
  std::uint32_t degree = 0;
  double peak_left = 1.0;
};

/// Static match-cost estimate for one production: walk its beta chain,
/// charging alpha tests and join probes weighted by class activity (dampened
/// fan-in) and by the estimated left-memory population at each join.
[[nodiscard]] CostResult production_cost(const NetworkTopology& topo,
                                         const NetworkTopology::ProductionPath& path,
                                         const std::vector<double>& activity) {
  CostResult r;
  double left = 1.0;  // estimated tokens in the current left memory
  for (const std::uint32_t node : path.nodes) {
    const auto& j = topo.joins[node];
    const auto& a = topo.alphas[j.alpha];
    const double act = activity[a.cls];
    // Alpha cost: every WME of the class runs the pattern's tests. The
    // 2 + tests base matches the heuristic so activity == 1 recovers it.
    r.cost += act * (2.0 + alpha_tests(a));
    // Right activation: a passing WME probes the left memory — all of it
    // when unindexed, one hash bucket (est. quarter) when indexed.
    const double probes = j.indexed ? 1.0 + kJoinSel * left : std::max(1.0, left);
    r.cost += act * probes * (1.0 + j.tests);
    if (!j.negated) {
      ++r.degree;
      const double amem = kNominalWm * alpha_selectivity(a);
      left = std::max(left * amem * join_selectivity(j), kLeftFloor);
      r.peak_left = std::max(r.peak_left, left);
    }
  }
  return r;
}

[[nodiscard]] std::vector<double> activity_of(const std::vector<double>& traffic) {
  std::vector<double> activity(traffic.size(), 1.0);
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    activity[i] = std::pow(traffic[i], kFaninExponent);
  }
  return activity;
}

/// RHS-writes -> LHS-reads edges, ordered by (from, to, cls, negated) and
/// deduplicated.
[[nodiscard]] std::vector<DependencyEdge> dependency_edges(
    const Program& program, const std::vector<ProductionFootprint>& fps) {
  struct Reader {
    std::uint32_t production;
    bool negated;
  };
  std::vector<std::vector<Reader>> readers(program.class_count());
  for (const auto& fp : fps) {
    for (const auto& access : fp.accesses) {
      if (access.kind == AccessKind::Read) {
        readers[access.cls].push_back({fp.production->id(), false});
      } else if (access.kind == AccessKind::NegatedRead) {
        readers[access.cls].push_back({fp.production->id(), true});
      }
    }
  }

  std::vector<DependencyEdge> edges;
  for (const auto& fp : fps) {
    std::vector<ClassIndex> written;
    for (const auto& access : fp.accesses) {
      if (is_write(access.kind)) written.push_back(access.cls);
    }
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());
    for (const ClassIndex cls : written) {
      for (const Reader& r : readers[cls]) {
        DependencyEdge e;
        e.from = fp.production->id();
        e.to = r.production;
        e.cls = cls;
        e.class_name = class_name(program, cls);
        e.negated = r.negated;
        edges.push_back(std::move(e));
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const DependencyEdge& a, const DependencyEdge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    if (a.cls != b.cls) return a.cls < b.cls;
    return a.negated < b.negated;
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const DependencyEdge& a, const DependencyEdge& b) {
                            return a.from == b.from && a.to == b.to && a.cls == b.cls &&
                                   a.negated == b.negated;
                          }),
              edges.end());
  return edges;
}

}  // namespace

double ReteStaticReport::alpha_sharing() const noexcept {
  if (alpha_nodes == 0 || alpha_nodes_unshared == 0) return 0.0;
  return static_cast<double>(alpha_nodes_unshared) / static_cast<double>(alpha_nodes);
}

double ReteStaticReport::join_sharing() const noexcept {
  if (join_nodes == 0 || join_nodes_unshared == 0) return 0.0;
  return static_cast<double>(join_nodes_unshared) / static_cast<double>(join_nodes);
}

obs::json::Value ReteStaticReport::to_json() const {
  using obs::json::Array;
  using obs::json::Object;
  using obs::json::Value;

  Array alphas_json;
  for (const auto& a : alphas) {
    alphas_json.push_back(Value(Object{{"id", Value(a.id)},
                                       {"class", Value(a.cls)},
                                       {"tests", Value(a.tests)},
                                       {"users", Value(a.users)},
                                       {"selectivity", Value(rounded(a.selectivity))},
                                       {"traffic", Value(a.traffic)}}));
  }
  Array joins_json;
  for (const auto& j : joins) {
    joins_json.push_back(Value(Object{{"id", Value(j.id)},
                                      {"alpha", Value(j.alpha)},
                                      {"depth", Value(j.depth)},
                                      {"tests", Value(j.tests)},
                                      {"indexed", Value(j.indexed)},
                                      {"negated", Value(j.negated)},
                                      {"users", Value(j.users)},
                                      {"selectivity", Value(rounded(j.selectivity))},
                                      {"left_bound", Value(rounded(j.left_bound))}}));
  }
  Array costs_json;
  for (const auto& p : productions) {
    costs_json.push_back(Value(Object{{"id", Value(p.id)},
                                      {"name", Value(p.name)},
                                      {"cost", Value(rounded(p.match_cost))},
                                      {"heuristic", Value(p.heuristic_cost)},
                                      {"beta_degree", Value(p.beta_degree)},
                                      {"beta_bound", Value(rounded(p.beta_bound))}}));
  }
  Array edges_json;
  for (const auto& e : edges) {
    edges_json.push_back(Value(Object{{"from", Value(e.from)},
                                      {"to", Value(e.to)},
                                      {"class", Value(e.class_name)},
                                      {"negated", Value(e.negated)}}));
  }

  return Value(Object{{"schema", Value("rete-static-v1")},
                      {"program", Value(program)},
                      {"productions", Value(production_count)},
                      {"alpha_nodes", Value(alpha_nodes)},
                      {"alpha_nodes_unshared", Value(alpha_nodes_unshared)},
                      {"join_nodes", Value(join_nodes)},
                      {"join_nodes_unshared", Value(join_nodes_unshared)},
                      {"beta_memories", Value(beta_memories)},
                      {"alpha_sharing", Value(rounded(alpha_sharing()))},
                      {"join_sharing", Value(rounded(join_sharing()))},
                      {"nominal_wm", Value(kNominalWm)},
                      {"fanin_exponent", Value(kFaninExponent)},
                      {"alphas", Value(std::move(alphas_json))},
                      {"joins", Value(std::move(joins_json))},
                      {"costs", Value(std::move(costs_json))},
                      {"edges", Value(std::move(edges_json))}});
}

ReteStaticReport analyze_rete(const Program& program, const ReteStaticOptions&) {
  if (!program.frozen()) throw std::invalid_argument("analyze_rete requires a frozen Program");

  const rete::CompiledNetwork network(program);
  const NetworkTopology topo = network.topology();
  const rete::NetworkStats stats = network.stats();

  ReteStaticReport report;
  report.production_count = program.productions().size();
  report.alpha_nodes = stats.alpha_patterns;
  report.join_nodes = stats.join_nodes + stats.negative_nodes;
  report.beta_memories = stats.beta_memories;
  // Unshared, every CE compiles into its own alpha pattern and its own join
  // or negative node.
  for (const auto& path : topo.productions) report.alpha_nodes_unshared += path.nodes.size();
  report.join_nodes_unshared = report.alpha_nodes_unshared;

  const auto fps = program_footprints(program);
  const auto traffic = class_traffic(program, fps);
  const auto activity = activity_of(traffic);

  report.alphas.reserve(topo.alphas.size());
  for (const auto& a : topo.alphas) {
    AlphaNodeReport out;
    out.id = a.id;
    out.cls = class_name(program, a.cls);
    out.tests = alpha_tests(a);
    out.users = static_cast<std::uint32_t>(a.users.size());
    out.selectivity = alpha_selectivity(a);
    out.traffic = traffic[a.cls];
    report.alphas.push_back(std::move(out));
  }

  // Per-join left-memory bound: the maximum over the sharing productions of
  // the estimated left population when their chain reaches this node.
  std::vector<double> left_bound(topo.joins.size(), 1.0);
  for (const auto& path : topo.productions) {
    double left = 1.0;
    for (const std::uint32_t node : path.nodes) {
      const auto& j = topo.joins[node];
      left_bound[node] = std::max(left_bound[node], left);
      if (!j.negated) {
        const auto& a = topo.alphas[j.alpha];
        left = std::max(left * kNominalWm * alpha_selectivity(a) * join_selectivity(j),
                        kLeftFloor);
      }
    }
  }

  report.joins.reserve(topo.joins.size());
  for (const auto& j : topo.joins) {
    JoinNodeReport out;
    out.id = j.id;
    out.alpha = j.alpha;
    out.depth = j.depth;
    out.tests = j.tests;
    out.indexed = j.indexed;
    out.negated = j.negated;
    out.users = static_cast<std::uint32_t>(j.users.size());
    out.selectivity = join_selectivity(j);
    out.left_bound = left_bound[j.id];
    report.joins.push_back(std::move(out));
  }

  const auto prods = program.productions();
  report.productions.reserve(topo.productions.size());
  for (const auto& path : topo.productions) {
    const CostResult r = production_cost(topo, path, activity);
    ProductionReport out;
    out.id = path.production;
    out.name = std::string(program.symbols().name(prods[path.production].name()));
    out.match_cost = r.cost;
    out.heuristic_cost = heuristic_weight(prods[path.production]);
    out.beta_degree = r.degree;
    out.beta_bound = r.peak_left;
    report.productions.push_back(std::move(out));
  }
  std::sort(report.productions.begin(), report.productions.end(),
            [](const ProductionReport& a, const ProductionReport& b) { return a.id < b.id; });

  report.edges = dependency_edges(program, fps);
  return report;
}

}  // namespace psmsys::analysis
