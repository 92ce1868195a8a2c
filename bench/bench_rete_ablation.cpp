// Rete design ablation: the two network optimizations this implementation
// shares with ParaOPS5 — node sharing between productions with common
// prefixes and hash-indexed join memories. Each is toggled off to show its
// contribution on the LCC workload.

#include "bench/harness.hpp"

namespace psmsys::bench {

namespace {

util::WorkUnits run_with(const spam::Scene& scene, const std::vector<spam::Fragment>& best,
                         bool sharing, bool indexed, rete::NetworkStats* stats_out) {
  spam::PhaseProgram phase = spam::build_lcc_program();
  phase.network = std::make_shared<const rete::CompiledNetwork>(
      *phase.program, rete::NetworkOptions{.node_sharing = sharing, .indexed_joins = indexed});
  auto engine = phase.make_engine(scene);
  if (stats_out != nullptr) *stats_out = phase.network->stats();

  spam::seed_fragment_wmes(*engine, best);
  spam::seed_constraint_wmes(*engine);
  spam::seed_support_wmes(*engine, best);
  for (std::size_t i = 0; i < spam::kRegionClassCount; ++i) {
    engine->make_wme(
        "lcc-task",
        {{"level", ops5::Value(4.0)},
         {"subject-class", ops5::Value(*engine->program().symbols().find(
                               spam::class_name(static_cast<spam::RegionClass>(i))))}});
  }
  (void)engine->run();
  return engine->counters().match_cost;
}

}  // namespace

PSMSYS_BENCH_CASE(rete_ablation, "rete", "Rete ablation: node sharing, hashed join memories") {
  auto& os = ctx.out();

  const auto config = spam::dc_config();
  const auto scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);

  struct Config {
    bool sharing, indexed;
  };
  const std::vector<Config> configs = {{true, true}, {true, false}, {false, true}, {false, false}};

  util::Table table({"node sharing", "indexed joins", "match cost (wu)", "vs full",
                     "alpha patterns", "join nodes"});
  util::WorkUnits full = 0;
  for (const auto& [sharing, indexed] : configs) {
    rete::NetworkStats stats;
    const util::WorkUnits cost = run_with(scene, best, sharing, indexed, &stats);
    if (sharing && indexed) full = cost;
    const double vs_full = static_cast<double>(cost) / static_cast<double>(full);
    if (!sharing && !indexed) ctx.metric("both_off_vs_full", vs_full);
    table.add_row({sharing ? "on" : "off", indexed ? "on" : "off", util::Table::fmt(cost),
                   util::Table::fmt(vs_full, 2) + "x", util::Table::fmt(stats.alpha_patterns),
                   util::Table::fmt(stats.join_nodes)});
  }

  table.print(os, "Full LCC (Level 4) run on " + config.name +
                      " under four network configurations");
  os << "\nSharing and indexing are part of what made ParaOPS5's C implementation\n"
        "10-20x faster than the Lisp OPS5; indexing dominates on this workload\n"
        "because LCC's joins are equality-selective (fragment ids, subjects).\n";
  ctx.table("rete_ablation", table);
}

}  // namespace psmsys::bench
