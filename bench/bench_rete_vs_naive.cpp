// Section 6 (text): "This baseline system itself provides approximately a
// 10-20 fold speed-up over the original Lisp-based implementation."
//
// The original SPAM ran on an unoptimized Lisp OPS5 whose matcher recomputes
// far more than Rete's incremental network. We compare our Rete network
// against the naive stateless matcher (full recompute per WM change) on the
// same working-memory trace, in both model cost (work units) and host wall
// time.

#include <chrono>
#include <memory>

#include "bench/harness.hpp"
#include "rete/naive.hpp"
#include "rete/network.hpp"
#include "spam/programs.hpp"

namespace psmsys::bench {

namespace {

/// Discards activations; both matchers see the same listener overhead.
class NullListener final : public rete::MatchListener {
 public:
  void on_activate(const ops5::Production&, std::span<const ops5::Wme* const>) override {
    ++activations_;
  }
  void on_deactivate(const ops5::Production&, std::span<const ops5::Wme* const>) override {
    --activations_;
  }
  [[nodiscard]] std::int64_t activations() const noexcept { return activations_; }

 private:
  std::int64_t activations_ = 0;
};

struct TraceResult {
  util::WorkUnits match_cost = 0;
  double wall_ms = 0.0;
  std::int64_t final_matches = 0;
};

/// Replays adds of all WMEs (task WMEs first, so the constraint productions
/// join for real), then removes/re-adds a third of the fragments — the churn
/// a running production system produces. The naive matcher recomputes the
/// whole match from scratch after every one of these changes; Rete updates
/// incrementally.
TraceResult replay(rete::Matcher& matcher, const NullListener& listener,
                   const util::WorkCounters& counters,
                   const std::vector<std::unique_ptr<ops5::Wme>>& wmes) {
  const auto start = std::chrono::steady_clock::now();
  for (const auto& w : wmes) matcher.add_wme(*w);
  for (std::size_t i = spam::kRegionClassCount; i < wmes.size(); i += 3) {
    matcher.remove_wme(*wmes[i]);
  }
  for (std::size_t i = spam::kRegionClassCount; i < wmes.size(); i += 3) {
    matcher.add_wme(*wmes[i]);
  }
  const auto end = std::chrono::steady_clock::now();

  TraceResult r;
  r.match_cost = counters.match_cost;
  r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  r.final_matches = listener.activations();
  return r;
}

}  // namespace

PSMSYS_BENCH_CASE(rete_vs_naive, "rete",
                  "Rete vs naive match (the C-port baseline vs Lisp OPS5 analog)") {
  auto& os = ctx.out();

  // The LCC program over a dataset's fragment WMEs — a realistic SPAM-sized
  // match load.
  const spam::PhaseProgram phase = spam::build_lcc_program();
  const auto config = spam::dc_config();
  const auto scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);

  // Build fragment WMEs by hand (no engine: we drive matchers directly).
  const auto& program = *phase.program;
  const auto frag_cls = *program.class_index(*program.symbols().find("fragment"));
  const auto& decl = program.wme_class(frag_cls);
  const auto yes = ops5::Value(*program.symbols().find("yes"));
  std::vector<std::unique_ptr<ops5::Wme>> wmes;
  ops5::TimeTag tag = 1;

  // Level 4 task WMEs first: with them present, every fragment insertion
  // participates in the constraint-application joins.
  const auto task_cls = *program.class_index(*program.symbols().find("lcc-task"));
  const auto& task_decl = program.wme_class(task_cls);
  for (std::size_t i = 0; i < spam::kRegionClassCount; ++i) {
    std::vector<ops5::Value> slots(task_decl.arity());
    slots[task_decl.slot_of(*program.symbols().find("level"))] = ops5::Value(4.0);
    slots[task_decl.slot_of(*program.symbols().find("subject-class"))] = ops5::Value(
        *program.symbols().find(spam::class_name(static_cast<spam::RegionClass>(i))));
    wmes.push_back(
        std::make_unique<ops5::Wme>(task_cls, task_decl.name(), std::move(slots), tag++));
  }

  for (const auto& f : best) {
    std::vector<ops5::Value> slots(decl.arity());
    slots[decl.slot_of(*program.symbols().find("id"))] = ops5::Value(double(f.id));
    slots[decl.slot_of(*program.symbols().find("region"))] = ops5::Value(double(f.region));
    slots[decl.slot_of(*program.symbols().find("class"))] =
        ops5::Value(*program.symbols().find(spam::class_name(f.cls)));
    slots[decl.slot_of(*program.symbols().find("score"))] = ops5::Value(f.score);
    slots[decl.slot_of(*program.symbols().find("best"))] = yes;
    wmes.push_back(
        std::make_unique<ops5::Wme>(frag_cls, decl.name(), std::move(slots), tag++));
  }

  NullListener rete_listener;
  util::WorkCounters rete_counters;
  rete::Network network(program, rete_listener, rete_counters);
  const TraceResult rete = replay(network, rete_listener, rete_counters, wmes);

  NullListener naive_listener;
  util::WorkCounters naive_counters;
  rete::NaiveMatcher naive(program, naive_listener, naive_counters);
  const TraceResult nv = replay(naive, naive_listener, naive_counters, wmes);

  util::Table table({"matcher", "match cost (wu)", "wall (ms)", "matches"});
  table.add_row({"rete (incremental, indexed)", util::Table::fmt(rete.match_cost),
                 util::Table::fmt(rete.wall_ms, 2), util::Table::fmt(rete.final_matches, 0)});
  table.add_row({"naive (full recompute)", util::Table::fmt(nv.match_cost),
                 util::Table::fmt(nv.wall_ms, 2), util::Table::fmt(nv.final_matches, 0)});
  table.print(os, "Same WM trace (" + std::to_string(wmes.size()) +
                      " fragment WMEs, add + churn) through both matchers");
  ctx.table("rete_vs_naive", table);

  if (rete.final_matches != nv.final_matches) {
    ctx.fail("matchers disagree on the final match set");
    return;
  }
  const double cost_ratio = double(nv.match_cost) / double(rete.match_cost);
  ctx.metric("model_cost_ratio", cost_ratio);
  ctx.metric("wall_time_ratio", nv.wall_ms / rete.wall_ms);
  os << "\nmodel-cost ratio: " << util::Table::fmt(cost_ratio, 1)
     << "x   wall-time ratio: " << util::Table::fmt(nv.wall_ms / rete.wall_ms, 1)
     << "x\npaper: the ParaOPS5/C port gave ~10-20x over Lisp OPS5 (which also\n"
        "included Lisp->C gains; the match-algorithm share is reproduced here).\n";
}

}  // namespace psmsys::bench
