// Google-benchmark microbenchmarks of the Rete engine itself: host-time cost
// of WME insertion/retraction, recognize-act cycles, and network compilation.
// These measure the substrate, not the paper's experiments (which are in the
// bench_* table binaries).

#include <benchmark/benchmark.h>

#include <memory>

#include "ops5/engine.hpp"
#include "ops5/parser.hpp"
#include "spam/minisys.hpp"
#include "spam/phases.hpp"
#include "spam/programs.hpp"
#include "spam/scene_generator.hpp"

namespace {

using namespace psmsys;

std::shared_ptr<const ops5::Program> two_ce_program() {
  static const auto program = std::make_shared<const ops5::Program>(ops5::parse_program(R"(
(literalize item id kind value)
(literalize mark item note)
(p pair
   (item ^id <a> ^kind probe ^value <v>)
   (item ^id <> <a> ^kind anchor ^value <v>)
   -->
   (make mark ^item <a> ^note paired))
)"));
  return program;
}

void BM_WmeAddRemove(benchmark::State& state) {
  ops5::Engine engine(two_ce_program(), nullptr);
  const auto anchor = *engine.program().symbols().find("anchor");
  const auto probe = *engine.program().symbols().find("probe");
  // Preload anchors so each probe insertion does real join work.
  const auto n_anchors = state.range(0);
  for (std::int64_t i = 0; i < n_anchors; ++i) {
    engine.make_wme("item", {{"id", ops5::Value(double(i))},
                             {"kind", ops5::Value(anchor)},
                             {"value", ops5::Value(double(i % 16))}});
  }
  double id = 1'000'000.0;
  for (auto _ : state) {
    const auto& w = engine.make_wme("item", {{"id", ops5::Value(id)},
                                             {"kind", ops5::Value(probe)},
                                             {"value", ops5::Value(3.0)}});
    engine.remove_wme(w);
    id += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WmeAddRemove)->Arg(64)->Arg(512)->Arg(4096);

void BM_RecognizeActCycle(benchmark::State& state) {
  // Steady-state firing rate of a mid-sized ring system.
  spam::MiniSystemConfig config = spam::weaver_analog();
  config.steps = 1 << 30;  // never self-halts inside the loop
  const auto program = spam::build_minisystem(config);
  for (auto _ : state) {
    state.PauseTiming();
    ops5::Engine engine(program, nullptr);
    for (int k = 0; k < config.ring_size; ++k) {
      for (int i = 0; i < config.cells_per_key; ++i) {
        engine.make_wme("cell", {{"key", ops5::Value(double(k))},
                                 {"val", ops5::Value(double(i % config.value_range))}});
      }
    }
    engine.make_wme("token", {{"pos", ops5::Value(0.0)}, {"count", ops5::Value(0.0)}});
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(engine.step());
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RecognizeActCycle)->Unit(benchmark::kMicrosecond);

void BM_NetworkCompile(benchmark::State& state) {
  // Parsing and compiling the ~150-production LCC rule base: what a phase
  // bundle or a server rule base does once, after which every PSM task
  // process and session engine shares the compiled network.
  const auto source = spam::lcc_source();
  for (auto _ : state) {
    auto program = std::make_shared<ops5::Program>();
    ops5::parse_into(*program, source);
    program->freeze();
    ops5::Engine engine(std::move(program), nullptr);
    benchmark::DoNotOptimize(engine.network().compiled().stats());
  }
  state.SetLabel("parse + compile LCC rule base");
}
BENCHMARK(BM_NetworkCompile)->Unit(benchmark::kMillisecond);

void BM_LccLevel3Task(benchmark::State& state) {
  // Host cost of one real Level 3 LCC task on the DC dataset.
  const auto scene = spam::generate_scene(spam::dc_config());
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);
  const spam::PhaseProgram phase = spam::build_lcc_program();
  auto engine = phase.make_engine(scene);
  spam::seed_fragment_wmes(*engine, best);
  spam::seed_constraint_wmes(*engine);
  spam::seed_support_wmes(*engine, best);
  const auto reseed = [&] {
    engine->reset();
    spam::seed_fragment_wmes(*engine, best);
    spam::seed_constraint_wmes(*engine);
    spam::seed_support_wmes(*engine, best);
  };
  std::size_t next = 0;
  for (auto _ : state) {
    engine->make_wme("lcc-task", {{"level", ops5::Value(3.0)},
                                  {"subject", ops5::Value(double(best[next].id))}});
    benchmark::DoNotOptimize(engine->run());
    if (++next == best.size()) {
      // Wrapping would re-run old tasks against accumulated results; start a
      // fresh task process instead (untimed, like PSM initialization).
      state.PauseTiming();
      reseed();
      next = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LccLevel3Task)->Unit(benchmark::kMicrosecond);

void BM_SceneGeneration(benchmark::State& state) {
  const auto config = spam::sf_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spam::generate_scene(config));
  }
  state.SetLabel("SF scene (~290 regions)");
}
BENCHMARK(BM_SceneGeneration)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
