// Figure 3: ParaOPS5 match-parallelism speedups for three match-intensive
// OPS5 systems on the Encore Multimax (reproduced in the paper from Gupta
// et al. [9]).
//
// Paper shape: Rubik reaches ~9x at 13 match processes, Weaver ~6-7x,
// Tourney saturates around 2x. The differences come from per-cycle match
// effort: Rubik's firings touch many productions, Tourney's only a few.

#include "bench/harness.hpp"
#include "spam/minisys.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(match_systems, "match_systems",
                  "Figure 3: match parallelism on match-intensive systems") {
  auto& os = ctx.out();

  const std::vector<std::size_t> procs{1, 2, 4, 6, 8, 10, 13};
  std::vector<std::string> headers{"system", "match%"};
  for (const std::size_t m : procs) headers.push_back("m=" + std::to_string(m));
  util::Table table(std::move(headers));

  for (const auto& config :
       {spam::rubik_analog(), spam::weaver_analog(), spam::tourney_analog()}) {
    const psm::TaskMeasurement run = spam::run_minisystem(config);
    std::vector<std::string> row{config.name,
                                 util::Table::fmt(100.0 * run.counters.match_fraction(), 1)};
    std::vector<std::pair<std::size_t, double>> curve;
    std::vector<SpeedupPoint> points;
    for (const std::size_t m : procs) {
      psm::MatchModel model;
      model.match_processes = m;
      const double s = psm::speedup(run.cost(), psm::task_cost_with_match(run, model));
      row.push_back(util::Table::fmt(s, 2));
      curve.emplace_back(m, s);
      points.push_back({m, s});
    }
    table.add_row(std::move(row));
    ctx.speedup_series(config.name, std::move(points));
    plot_curve(os, config.name + " (speedup vs match processes)", curve, 10.0);
    os << '\n';
  }

  table.print(os, "Speed-ups varying the number of match processes");
  os << "\npaper (read off Figure 3): rubik ~9x @13, weaver ~6-7x @13, "
        "tourney ~2x saturated\n";
  ctx.table("figure3", table);
}

}  // namespace psmsys::bench
