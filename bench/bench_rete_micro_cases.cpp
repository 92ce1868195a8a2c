// Match-core microbench gates for the Rete hot-path rewrite: per-retract
// cost must stay flat in working-memory size (the O(1) slot/back-pointer
// retraction), and quiescent productions must cost ~nothing under node
// unlinking. These cases emit BENCH_rete_micro.json and *fail* the harness
// when a flatness ratio regresses — they are the CI gate.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "ops5/parser.hpp"
#include "rete/network.hpp"

namespace psmsys::bench {

namespace {

/// The networks under test never fire RHS code here: nothing listens.
class NullListener final : public rete::MatchListener {
 public:
  void on_activate(const ops5::Production&, std::span<const ops5::Wme* const>) override {}
  void on_deactivate(const ops5::Production&, std::span<const ops5::Wme* const>) override {}
};

/// A (item ^v i) WME per i — the minimal one-token-per-WME workload.
std::vector<std::unique_ptr<ops5::Wme>> make_items(const ops5::Program& program,
                                                   std::size_t count) {
  const auto cls = *program.class_index(*program.symbols().find("item"));
  const auto& decl = program.wme_class(cls);
  const auto v_slot = decl.slot_of(*program.symbols().find("v"));
  std::vector<std::unique_ptr<ops5::Wme>> wmes;
  wmes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<ops5::Value> slots(decl.arity());
    slots[v_slot] = ops5::Value(double(i));
    wmes.push_back(std::make_unique<ops5::Wme>(cls, decl.name(), std::move(slots),
                                               ops5::TimeTag(i + 1)));
  }
  return wmes;
}

/// One remove/re-add churn cycle over the first `k` WMEs.
void churn(rete::Matcher& matcher, const std::vector<std::unique_ptr<ops5::Wme>>& wmes,
           std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) matcher.remove_wme(*wmes[i]);
  for (std::size_t i = 0; i < k; ++i) matcher.add_wme(*wmes[i]);
}

/// `idle` two-CE productions whose second CE class is never asserted, plus
/// one genuinely active production — the quiescent-rule-base shape node
/// unlinking is for. All productions share the (item ^v <x>) prefix, so the
/// idle joins hang off one shared beta memory.
std::string quiescent_source(std::size_t idle) {
  std::string src =
      "(literalize item k v w)\n"
      "(literalize quiet k v w)\n"
      "(p active (item ^v <x>) --> (halt))\n";
  for (std::size_t i = 0; i < idle; ++i) {
    src += "(p idle-" + std::to_string(i) + " (item ^v <x>) (quiet ^k " + std::to_string(i) +
           " ^v <x>) --> (halt))\n";
  }
  return src;
}

}  // namespace

PSMSYS_BENCH_CASE(retract_heavy, "rete_micro",
                  "O(1) retraction: per-operation cost vs working-memory size") {
  auto& os = ctx.out();

  // markers never enter WM, so every item holds exactly one live token and
  // the trace isolates WME bookkeeping from join fan-out.
  const ops5::Program program = ops5::parse_program(
      "(literalize item k v w)\n"
      "(literalize marker k v w)\n"
      "(p pair (item ^v <x>) (marker ^v <x>) --> (halt))\n");

  const std::size_t kChurn = 128;
  constexpr int reps = 7;
  const std::vector<std::size_t> sizes = {256, 1024, 4096};

  util::Table table({"WM size", "wu/op", "host ns/op"});
  std::vector<double> wu_per_op, ns_per_op;
  for (const std::size_t n : sizes) {
    const auto wmes = make_items(program, n);
    NullListener listener;
    util::WorkCounters counters;
    rete::Network network(program, listener, counters);
    for (const auto& w : wmes) network.add_wme(*w);

    // Model cost is deterministic: one cycle suffices.
    const auto before = counters.match_cost;
    churn(network, wmes, kChurn);
    const double wu = double(counters.match_cost - before) / double(2 * kChurn);

    auto best = std::chrono::nanoseconds::max();
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      churn(network, wmes, kChurn);
      best = std::min(best, std::chrono::steady_clock::now() - start);
    }
    const double ns = double(best.count()) / double(2 * kChurn);

    wu_per_op.push_back(wu);
    ns_per_op.push_back(ns);
    table.add_row({util::Table::fmt(double(n), 0), util::Table::fmt(wu, 2),
                   util::Table::fmt(ns, 1)});
    ctx.metric("wu_per_op_" + std::to_string(n), wu);
    ctx.metric("ns_per_op_" + std::to_string(n), ns);
  }
  table.print(os, "remove/re-add cycle cost (" + std::to_string(kChurn) +
                      " WMEs churned) at increasing WM sizes");
  ctx.table("retract_heavy", table);

  // The gates: a linear-scan retraction would scale ~16x from 256 to 4096.
  // Model cost must be flat; host time gets slack for cache effects.
  const double wu_ratio = wu_per_op.back() / wu_per_op.front();
  const double ns_ratio = ns_per_op.back() / ns_per_op.front();
  ctx.metric("wu_flatness_ratio", wu_ratio);
  ctx.metric("ns_flatness_ratio", ns_ratio);
  os << "\nflatness 256 -> 4096: model " << util::Table::fmt(wu_ratio, 2) << "x, host "
     << util::Table::fmt(ns_ratio, 2) << "x (O(n) retraction would be ~16x)\n";
  if (wu_ratio > 1.1) {
    ctx.fail("per-op model cost grew " + util::Table::fmt(wu_ratio, 2) +
             "x from 256 to 4096 WMEs (gate: 1.1x) — retraction is no longer O(1)");
  }
  if (ns_ratio > 3.0) {
    ctx.fail("per-op host time grew " + util::Table::fmt(ns_ratio, 2) +
             "x from 256 to 4096 WMEs (gate: 3.0x) — retraction is no longer O(1)");
  }
}

PSMSYS_BENCH_CASE(quiescent_scaling, "rete_micro",
                  "Node unlinking: match cost vs number of quiescent productions") {
  auto& os = ctx.out();

  const std::size_t kWarm = 64;
  const std::size_t kChurn = 32;
  const int cycles = 4;
  const std::vector<std::size_t> idle_counts = {0, 64, 256};

  util::Table table({"idle prods", "wu/op"});
  std::vector<double> wu_per_op;
  for (const std::size_t idle : idle_counts) {
    const ops5::Program program = ops5::parse_program(quiescent_source(idle));
    const auto wmes = make_items(program, kWarm);
    NullListener listener;
    util::WorkCounters counters;
    rete::Network network(program, listener, counters);
    for (const auto& w : wmes) network.add_wme(*w);
    const auto before = counters.match_cost;
    for (int c = 0; c < cycles; ++c) churn(network, wmes, kChurn);
    const double wu = double(counters.match_cost - before) / double(cycles * 2 * kChurn);
    wu_per_op.push_back(wu);
    table.add_row({util::Table::fmt(double(idle), 0), util::Table::fmt(wu, 2)});
    ctx.metric("wu_idle_" + std::to_string(idle), wu);
  }
  table.print(os, "per-WME-change match cost as quiescent productions are added");
  ctx.table("quiescent_scaling", table);

  // Gate: quadrupling the idle productions (64 -> 256) may add at most 5%
  // per-op cost (the 0 -> 64 step pays a one-off topology cost — the shared
  // beta memory exists at all — so the flatness gate is against the 64
  // baseline).
  const double idle_ratio = wu_per_op[2] / wu_per_op[1];
  ctx.metric("idle_cost_ratio", idle_ratio);
  os << "\nunlinked idle-production overhead 64 -> 256: " << util::Table::fmt(idle_ratio, 2)
     << "x (gate: 1.05x)\n";
  if (idle_ratio > 1.05) {
    ctx.fail("4x the quiescent productions raised per-op cost " +
             util::Table::fmt(idle_ratio, 2) + "x (gate: 1.05x) — unlinking is not engaging");
  }
}

}  // namespace psmsys::bench
