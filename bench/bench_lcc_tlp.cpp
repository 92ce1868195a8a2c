// Figure 6: speed-ups from task-level parallelism in the LCC phase, varying
// task processes 1..14, for decomposition Levels 3 and 2 on all three
// datasets.
//
// Paper: near-linear curves for all datasets at both levels; maximum 11.90x
// (Level 3) and 12.58x (Level 2) at 14 processes; Level 2 consistently a
// little better (<10%) because Level 3's outlier tasks have greater relative
// disparity (tail-end effect).

#include "bench/harness.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(lcc_tlp, "lcc", "Figure 6: LCC task-level parallelism") {
  auto& os = ctx.out();

  const std::vector<std::size_t> procs{1, 2, 4, 6, 8, 10, 12, 14};
  std::vector<std::string> headers{"dataset", "level"};
  for (const std::size_t p : procs) headers.push_back("p=" + std::to_string(p));
  headers.emplace_back("util@14");
  util::Table table(std::move(headers));

  for (const int level : {3, 2}) {
    for (const auto& config : spam::all_datasets()) {
      const auto& measured = ctx.lcc(config, level);
      const auto costs = psm::task_costs(measured.tasks);
      std::vector<std::string> row{config.name, std::to_string(level)};
      std::vector<std::pair<std::size_t, double>> curve;
      std::vector<SpeedupPoint> points;
      for (const std::size_t p : procs) {
        const double s = tlp_speedup(costs, p);
        row.push_back(util::Table::fmt(s, 2));
        curve.emplace_back(p, s);
        points.push_back({p, s});
      }
      psm::TlpConfig c14;
      c14.task_processes = 14;
      row.push_back(util::Table::fmt(psm::simulate_tlp(costs, c14).utilization(), 2));
      table.add_row(std::move(row));
      ctx.speedup_series(config.name + "_L" + std::to_string(level), std::move(points));
      if (config.name == "SF") {
        plot_curve(os,
                   "SF Level " + std::to_string(level) + " (speedup vs task processes)",
                   curve, 14.0);
        os << '\n';
      }
    }
  }

  table.print(os, "Speed-ups varying the number of task-level processes");
  os << "\npaper: max 11.90x (Level 3) / 12.58x (Level 2) at 14 processes;\n"
        "Level 2 consistently slightly better than Level 3 (<10%).\n";
  ctx.table("figure6", table);
  ctx.note("paper: max 11.90x (L3) / 12.58x (L2) at 14 processes");
}

}  // namespace psmsys::bench
