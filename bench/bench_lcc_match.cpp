// Figure 7: speed-ups from match parallelism in the LCC phase (Level 3),
// varying dedicated match processes 0..13 with a single task process.
//
// Paper: theoretical (Amdahl) limits SF 1.95, DC 1.36, MOFF 1.54; achieved
// 1.71 / 1.28 / 1.45 — 88-94% of the limits — with the curves peaking at 6
// or fewer match processes. The limits come from LCC spending < 50% of its
// time in match.

#include "bench/harness.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(lcc_match, "lcc", "Figure 7: LCC match parallelism (Level 3)") {
  auto& os = ctx.out();

  const std::vector<std::size_t> procs{1, 2, 3, 4, 6, 8, 13};
  std::vector<std::string> headers{"dataset", "limit"};
  for (const std::size_t m : procs) headers.push_back("m=" + std::to_string(m));
  headers.emplace_back("achieved/limit");
  util::Table table(std::move(headers));

  for (const auto& config : spam::all_datasets()) {
    const auto& measured = ctx.lcc(config, 3, /*record_cycles=*/true);
    const double limit = psm::match_speedup_limit(measured.tasks);

    psm::TlpConfig one_proc;
    one_proc.task_processes = 1;
    const auto baseline = psm::simulate_tlp(psm::task_costs(measured.tasks), one_proc);

    std::vector<std::string> row{config.name, util::Table::fmt(limit, 2)};
    std::vector<std::pair<std::size_t, double>> curve;
    std::vector<SpeedupPoint> points;
    double best = 0.0;
    for (const std::size_t m : procs) {
      psm::MatchModel model;
      model.match_processes = m;
      const auto costs = psm::task_costs(measured.tasks, &model);
      const double s = psm::speedup(baseline.makespan,
                                    psm::simulate_tlp(costs, one_proc).makespan);
      row.push_back(util::Table::fmt(s, 2));
      curve.emplace_back(m, s);
      points.push_back({m, s});
      best = std::max(best, s);
    }
    row.push_back(util::Table::fmt(100.0 * best / limit, 0) + "%");
    table.add_row(std::move(row));
    ctx.speedup_series(config.name + "_match", std::move(points));
    ctx.metric(config.name + "_limit", limit);
    ctx.metric(config.name + "_achieved", best);
    plot_curve(os,
               config.name + " (speedup vs match processes, dotted limit " +
                   util::Table::fmt(limit, 2) + ")",
               curve, 2.5);
    os << '\n';
  }

  table.print(os, "Speed-ups varying the number of dedicated match processes");
  os << "\npaper: limits 1.95/1.36/1.54 (SF/DC/MOFF); achieved 1.71/1.28/1.45\n"
        "(88-94% of the limits), peaking at <= 6 match processes.\n";
  ctx.table("figure7", table);
}

}  // namespace psmsys::bench
