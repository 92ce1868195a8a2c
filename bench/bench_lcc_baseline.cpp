// Table 8: baseline (one task process) measurements of the LCC phase for
// the three datasets at decomposition Levels 3 and 2 — the numbers every
// speedup in the paper is computed against.
//
// Paper values (optimized ParaOPS5-based uniprocessor version):
//   dataset      total(s) #tasks avg(s) prods-fired rhs-actions
//   SF  Level 3    1433     283   5.07     33475       42383
//   SF  Level 2    1423     941   1.51     32251       41159
//   DC  Level 3     988     151   6.55     20059       31205
//   DC  Level 2     956     490   1.95     19418       30564
//   MOFF Level 3    991     209   4.74     22203       23637
//   MOFF Level 2    973     700   1.39     21294       22728

#include "bench/harness.hpp"

namespace psmsys::bench {

namespace {

struct PaperRow {
  const char* dataset;
  int level;
  double total;
  int tasks;
  double avg;
  int prods;
  int rhs;
};

constexpr PaperRow kPaper[] = {
    {"SF", 3, 1433, 283, 5.07, 33475, 42383},   {"SF", 2, 1423, 941, 1.51, 32251, 41159},
    {"DC", 3, 988, 151, 6.55, 20059, 31205},    {"DC", 2, 956, 490, 1.95, 19418, 30564},
    {"MOFF", 3, 991, 209, 4.74, 22203, 23637},  {"MOFF", 2, 973, 700, 1.39, 21294, 22728},
};

}  // namespace

PSMSYS_BENCH_CASE(lcc_baseline, "lcc", "Table 8: LCC baseline (single task process)") {
  auto& os = ctx.out();

  util::Table table({"Dataset", "Total time (s)", "Number of tasks", "Avg time per task (s)",
                     "Prods fired", "RHS actions", "paper: total/tasks/avg"});

  for (const auto& config : spam::all_datasets()) {
    for (const int level : {3, 2}) {
      const auto& measured = ctx.lcc(config, level);
      util::WorkUnits total = 0;
      std::uint64_t prods = 0;
      std::uint64_t rhs = 0;
      for (const auto& m : measured.tasks) {
        total += m.cost();
        prods += m.counters.firings;
        rhs += m.counters.rhs_actions;
      }
      const double total_s = util::to_seconds(total);
      const PaperRow* paper = nullptr;
      for (const auto& row : kPaper) {
        if (config.name == row.dataset && level == row.level) paper = &row;
      }
      table.add_row({config.name + " Level " + std::to_string(level),
                     util::Table::fmt(total_s, 0), util::Table::fmt(measured.tasks.size()),
                     util::Table::fmt(total_s / static_cast<double>(measured.tasks.size()), 2),
                     util::Table::fmt(prods), util::Table::fmt(rhs),
                     paper != nullptr
                         ? util::Table::fmt(paper->total, 0) + "/" +
                               util::Table::fmt(std::uint64_t(paper->tasks)) + "/" +
                               util::Table::fmt(paper->avg, 2)
                         : "-"});
      const std::string key = config.name + "_L" + std::to_string(level);
      ctx.metric(key + "_total_s", total_s);
      ctx.metric(key + "_tasks", static_cast<double>(measured.tasks.size()));
      ctx.metric(key + "_firings", static_cast<double>(prods));
    }
  }

  table.print(os, "Measurements for baseline system on the datasets");
  ctx.table("table8", table);

  ctx.note("totals nearly level-independent; Level 3 tasks ~3.3x coarser than Level 2");
  os << "\nShape checks: totals nearly level-independent per dataset; SF is the\n"
        "largest run; Level 3 tasks are ~3.3x coarser than Level 2 tasks.\n";
}

}  // namespace psmsys::bench
