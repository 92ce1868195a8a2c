#include "spam/minisys.hpp"

#include <sstream>

#include "ops5/parser.hpp"

namespace psmsys::spam {

MiniSystemConfig rubik_analog() {
  MiniSystemConfig c;
  c.name = "rubik";
  c.ring_size = 36;
  c.cells_per_key = 24;
  c.value_range = 8;
  c.join_depth = 3;
  c.steps = 300;
  return c;
}

MiniSystemConfig weaver_analog() {
  MiniSystemConfig c;
  c.name = "weaver";
  c.ring_size = 24;
  c.cells_per_key = 5;
  c.value_range = 3;
  c.join_depth = 2;
  c.steps = 300;
  return c;
}

MiniSystemConfig tourney_analog() {
  MiniSystemConfig c;
  c.name = "tourney";
  c.ring_size = 10;
  c.cells_per_key = 3;
  c.value_range = 3;
  c.join_depth = 1;
  c.steps = 300;
  return c;
}

std::string minisystem_source(const MiniSystemConfig& config) {
  std::ostringstream os;
  os << "(literalize token pos count)\n"
     << "(literalize cell key val)\n\n";
  for (int k = 0; k < config.ring_size; ++k) {
    os << "(p step-" << k << "\n"
       << "   (token ^pos " << k << " ^count { <c> < " << config.steps << " })\n"
       << "   (cell ^key " << k << " ^val <v>)\n";
    for (int d = 1; d <= config.join_depth; ++d) {
      const int key = (k + d) % config.ring_size;
      // Alternate equality and inequality joins for varied test profiles.
      const char* pred = d % 2 == 1 ? "" : "<> ";
      os << "   (cell ^key " << key << " ^val " << pred << "<v>)\n";
    }
    os << "   -->\n"
       << "   (modify 2 ^val (compute <v> + 0))\n"
       << "   (modify 1 ^pos " << (k + 1) % config.ring_size
       << " ^count (compute <c> + 1)))\n\n";
  }
  return os.str();
}

std::shared_ptr<const ops5::Program> build_minisystem(const MiniSystemConfig& config) {
  auto program = std::make_shared<ops5::Program>();
  ops5::parse_into(*program, minisystem_source(config));
  program->freeze();
  return program;
}

psm::TaskMeasurement run_minisystem(const MiniSystemConfig& config) {
  ops5::EngineConfig options;
  options.record_cycles = true;
  options.max_cycles = static_cast<std::uint64_t>(config.steps) + 16;
  ops5::Engine engine(build_minisystem(config), nullptr, options);

  using ops5::Value;
  for (int k = 0; k < config.ring_size; ++k) {
    for (int i = 0; i < config.cells_per_key; ++i) {
      engine.make_wme("cell", {
          {"key", Value(static_cast<double>(k))},
          {"val", Value(static_cast<double>(i % config.value_range))},
      });
    }
  }
  engine.make_wme("token", {{"pos", Value(0.0)}, {"count", Value(0.0)}});

  (void)engine.run();

  psm::TaskMeasurement m;
  m.task_id = 0;
  m.counters = engine.counters();
  const auto records = engine.cycle_records();
  m.cycles.assign(records.begin(), records.end());
  return m;
}

}  // namespace psmsys::spam
