// Figure 8: the RTF phase under both parallelism sources.
//
// Paper: RTF is closer to a traditional OPS5 system — measurements showed
// 60% of execution time in match, so match parallelism is limited to ~2.5x
// (asymptotic limits SF 2.31 / DC 2.25 / MOFF 2.27), while task-level
// parallelism still gives good (slightly sublinear) speedups, a little lower
// than LCC's because RTF tasks are fewer and finer-grained.

#include "bench/harness.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(rtf, "rtf", "Figure 8: RTF phase (task-level and match parallelism)") {
  auto& os = ctx.out();

  const std::vector<std::size_t> task_procs{1, 2, 4, 6, 8, 10, 12, 14};
  const std::vector<std::size_t> match_procs{1, 2, 3, 4, 6, 8, 13};

  std::vector<std::string> tlp_headers{"dataset", "#tasks"};
  for (const std::size_t p : task_procs) tlp_headers.push_back("p=" + std::to_string(p));
  util::Table tlp_table(std::move(tlp_headers));

  std::vector<std::string> match_headers{"dataset", "match%", "limit"};
  for (const std::size_t m : match_procs) match_headers.push_back("m=" + std::to_string(m));
  util::Table match_table(std::move(match_headers));

  for (const auto& config : spam::all_datasets()) {
    const auto& measured = ctx.rtf(config, /*record_cycles=*/true);
    const auto costs = psm::task_costs(measured.tasks);

    std::vector<std::string> row{config.name, util::Table::fmt(measured.tasks.size())};
    std::vector<std::pair<std::size_t, double>> curve;
    std::vector<SpeedupPoint> points;
    for (const std::size_t p : task_procs) {
      const double s = tlp_speedup(costs, p);
      row.push_back(util::Table::fmt(s, 2));
      curve.emplace_back(p, s);
      points.push_back({p, s});
    }
    tlp_table.add_row(std::move(row));
    ctx.speedup_series(config.name + "_tlp", std::move(points));
    if (config.name == "SF") {
      plot_curve(os, "SF RTF (speedup vs task processes)", curve, 14.0);
      os << '\n';
    }

    util::WorkCounters total;
    for (const auto& m : measured.tasks) total += m.counters;
    psm::TlpConfig one;
    one.task_processes = 1;
    const util::WorkUnits baseline = psm::simulate_tlp(costs, one).makespan;
    std::vector<std::string> mrow{config.name,
                                  util::Table::fmt(100.0 * total.match_fraction(), 1),
                                  util::Table::fmt(psm::match_speedup_limit(measured.tasks), 2)};
    std::vector<SpeedupPoint> mpoints;
    for (const std::size_t m : match_procs) {
      psm::MatchModel model;
      model.match_processes = m;
      const auto mcosts = psm::task_costs(measured.tasks, &model);
      const double s = psm::speedup(baseline, psm::simulate_tlp(mcosts, one).makespan);
      mrow.push_back(util::Table::fmt(s, 2));
      mpoints.push_back({m, s});
    }
    match_table.add_row(std::move(mrow));
    ctx.speedup_series(config.name + "_match", std::move(mpoints));
    ctx.metric(config.name + "_match_fraction", total.match_fraction());
  }

  tlp_table.print(os, "RTF: speed-ups varying task-level processes (Level 2 grain)");
  os << "\npaper: good but slightly lower than LCC (fewer, finer tasks)\n\n";
  match_table.print(os, "RTF: speed-ups varying dedicated match processes");
  os << "\npaper: ~60% match -> speedups limited to ~2.5x "
        "(asymptotic limits 2.25-2.31)\n";
  ctx.table("figure8_tlp", tlp_table);
  ctx.table("figure8_match", match_table);
}

}  // namespace psmsys::bench
