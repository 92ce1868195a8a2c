// Figure 9: speed-ups on the shared-virtual-memory system — two Encore
// Multimaxes joined by the MACH network shared memory server, 13 usable
// processors on the first machine and 9 on the second.
//
// Paper: the SVM curve tracks pure TLP while all processes fit on one
// Encore; adding the first remote process produces an abrupt translational
// shift "equivalent to the loss of about 1.5 processors"; real speedups
// continue to 22 processes.

#include "bench/harness.hpp"
#include "svm/svm.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(svm_figure9, "svm", "Figure 9: shared virtual memory across two Encores") {
  auto& os = ctx.out();

  const auto& measured = ctx.lcc(spam::sf_config(), 3);
  const auto costs = psm::task_costs(measured.tasks);

  psm::TlpConfig one;
  one.task_processes = 1;
  const util::WorkUnits baseline = psm::simulate_tlp(costs, one).makespan;

  const svm::SvmConfig config;
  util::Table table({"processes", "node0/node1", "pure TLP", "SVM", "remote faults",
                     "fault cost (s)"});
  std::vector<std::pair<std::size_t, double>> tlp_curve;
  std::vector<std::pair<std::size_t, double>> svm_curve;
  std::vector<SpeedupPoint> tlp_points;
  std::vector<SpeedupPoint> svm_points;

  for (std::size_t p = 1; p <= 22; ++p) {
    psm::TlpConfig cfg;
    cfg.task_processes = p;
    const double tlp = psm::speedup(baseline, psm::simulate_tlp(costs, cfg).makespan);
    const auto sv = svm::simulate_svm(measured.tasks, p, config);
    const double svs = psm::speedup(baseline, sv.makespan);
    const std::size_t local = std::min(p, config.node0_procs);
    table.add_row({util::Table::fmt(p),
                   util::Table::fmt(local) + "/" + util::Table::fmt(p - local),
                   util::Table::fmt(tlp, 2), util::Table::fmt(svs, 2),
                   util::Table::fmt(sv.remote_faults),
                   util::Table::fmt(util::to_seconds(sv.remote_fault_cost), 1)});
    tlp_points.push_back({p, tlp});
    svm_points.push_back({p, svs});
    if (p % 2 == 0 || p == 1 || p == 13) {
      tlp_curve.emplace_back(p, tlp);
      svm_curve.emplace_back(p, svs);
    }
  }

  plot_curve(os, "Pure TLP (no network)", tlp_curve, 20.0);
  os << '\n';
  plot_curve(os, "Shared virtual memory (2nd Encore beyond 13)", svm_curve, 20.0);
  os << '\n';
  table.print(os, "Speed-ups with the virtual shared memory server (SF, Level 3)");
  ctx.speedup_series("pure_tlp", std::move(tlp_points));
  ctx.speedup_series("svm", std::move(svm_points));

  // Quantify the translational effect at 22 processes.
  psm::TlpConfig c22;
  c22.task_processes = 22;
  const double tlp22 = psm::speedup(baseline, psm::simulate_tlp(costs, c22).makespan);
  const double svm22 =
      psm::speedup(baseline, svm::simulate_svm(measured.tasks, 22, config).makespan);
  const double lost = (tlp22 - svm22) * 22.0 / tlp22;
  ctx.metric("processors_lost_at_22", lost);
  os << "\ntranslational effect at 22 processes: " << util::Table::fmt(svm22, 2) << " vs "
     << util::Table::fmt(tlp22, 2) << " pure TLP (~" << util::Table::fmt(lost, 1)
     << " processors lost; paper: ~1.5)\n";
  ctx.table("figure9", table);
  ctx.note("paper: first remote process costs ~1.5 processors (translational shift)");
}

}  // namespace psmsys::bench
