// Robustness study: how gracefully does task-level parallelism degrade when
// the machine misbehaves? The paper's executors assume a perfect machine;
// these cases quantify three failure economies on the measured SPAM tasks:
//
//   1. message loss + retransmission on the message-passing model
//      (speedup vs loss rate),
//   2. SVM fault storms and node failure (re-execution economics),
//   3. the real threaded executor under injected faults (retry/quarantine
//      accounting from the unified RunResult).

#include "bench/harness.hpp"
#include "psm/message_passing.hpp"
#include "psm/run.hpp"
#include "svm/svm.hpp"

namespace psmsys::bench {

PSMSYS_BENCH_CASE(loss_rate, "faults", "Message loss: speedup vs loss rate (14 workers)") {
  auto& os = ctx.out();
  const auto& measured = ctx.lcc(spam::sf_config(), 3);
  const auto costs = psm::task_costs(measured.tasks);
  psm::TlpConfig one;
  one.task_processes = 1;
  const util::WorkUnits base = psm::simulate_tlp(costs, one).makespan;

  util::Table table({"loss %", "speedup @14", "lost", "retransmits", "stall %", "vs lossless"});
  std::vector<std::pair<std::size_t, double>> curve;
  double lossless = 0.0;
  for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.40}) {
    psm::MessagePassingConfig c;
    c.workers = 14;
    c.distribution = psm::Distribution::Dynamic;
    c.loss_rate = loss;
    const auto r = psm::simulate_message_passing(costs, c);
    const double s = psm::speedup(base, r.makespan);
    if (loss == 0.0) lossless = s;
    curve.emplace_back(static_cast<std::size_t>(loss * 100.0), s);
    table.add_row({util::Table::fmt(loss * 100.0, 0), util::Table::fmt(s, 2),
                   util::Table::fmt(r.lost_messages), util::Table::fmt(r.retransmits),
                   util::Table::fmt(100.0 * static_cast<double>(r.retransmit_stall) /
                                        static_cast<double>(r.makespan * c.workers),
                                    1),
                   util::Table::fmt(100.0 * s / lossless, 1) + "%"});
  }
  table.print(os, "SF Level 3 tasks, exponential retransmit backoff");
  plot_curve(os, "\nspeedup vs message loss rate (%)", curve);
  ctx.table("loss_rate_curve", table);
  ctx.metric("lossless_speedup_at_14", lossless);
}

PSMSYS_BENCH_CASE(svm_degradation, "faults",
                  "SVM: fault storms and node failure (20 processors)") {
  auto& os = ctx.out();
  const auto& measured = ctx.lcc(spam::sf_config(), 3);

  svm::SvmConfig healthy;
  svm::SvmConfig stormy = healthy;
  stormy.storm_factor = 8.0;
  stormy.storm_until = 30000;
  svm::SvmConfig dying = healthy;
  dying.node1_fails_at = 40000;

  const auto base = svm::simulate_svm(measured.tasks, 1, healthy).makespan;
  util::Table table(
      {"scenario", "speedup @20", "remote faults", "reexecuted", "wasted wu", "lost procs"});
  const auto row = [&](const char* name, const svm::SvmConfig& c) {
    const auto r = svm::simulate_svm(measured.tasks, 20, c);
    table.add_row({name, util::Table::fmt(psm::speedup(base, r.makespan), 2),
                   util::Table::fmt(r.remote_faults), util::Table::fmt(r.reexecuted_tasks),
                   util::Table::fmt(r.wasted_work), util::Table::fmt(r.failed_procs)});
  };
  row("healthy", healthy);
  row("init fault storm x8", stormy);
  row("node 1 dies mid-run", dying);
  table.print(os, "graceful degradation: the run always completes");
  ctx.table("svm_degradation", table);
}

PSMSYS_BENCH_CASE(robust_executor, "faults",
                  "Threaded executor under injected faults (Level 3, 4 processes)") {
  auto& os = ctx.out();
  const auto config = spam::dc_config();
  const auto scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);
  const auto d = spam::lcc_decomposition(3, scene, best);

  psm::FaultConfig faults;
  faults.seed = 0x5eed;
  faults.transient_rate = 0.05;
  faults.kill_worker = 1;
  faults.kill_at_pop = 3;
  const psm::FaultInjector injector(faults);

  psm::RunOptions options;
  options.task_processes = 4;
  options.robustness.max_attempts = 6;
  const auto clean = psm::run(d.factory, d.tasks, options);
  options.injector = &injector;
  const auto faulty = psm::run(d.factory, d.tasks, options);

  util::Table table({"metric", "no faults", "5% transient + worker kill"});
  const auto row = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    table.add_row({name, util::Table::fmt(a), util::Table::fmt(b)});
  };
  row("tasks completed", clean.report.completed_ids.size(),
      faulty.report.completed_ids.size());
  row("tasks quarantined", clean.report.quarantined_ids.size(),
      faulty.report.quarantined_ids.size());
  row("retries", clean.metrics.retries, faulty.metrics.retries);
  row("requeues after worker death", clean.metrics.requeues, faulty.metrics.requeues);
  row("workers lost", clean.metrics.dead_workers, faulty.metrics.dead_workers);
  row("useful work (wu)", clean.metrics.total_cost_wu(), faulty.metrics.total_cost_wu());
  table.print(os, "every task id accounted for exactly once in both runs");
  ctx.table("robust_executor", table);
  // The unified executor's full metrics snapshot, straight into the JSON.
  ctx.metrics(clean.metrics, "clean_");
  ctx.metrics(faulty.metrics, "faulty_");
  os << "\nInjected faults cost retries and a worker, but the surviving\n"
        "processes drain the queue: failed attempts roll back the working\n"
        "memory (with original timetags), so retried tasks recompute\n"
        "bit-identical results. Useful work shifts by well under 1% --\n"
        "that is task placement across engines, not lost or repeated\n"
        "results.\n";
}

}  // namespace psmsys::bench
