// spam_serve: load-spammer CLI for the multi-session interpretation server
// (DESIGN.md §14). Compiles the SPAM LCC phase ONCE into a SharedRuleBase,
// then hammers a Server with the dataset's LCC tasks as concurrent scenes —
// each scene an independent OPS5 run over a resident engine context, rolled
// back to the base working memory when it finishes.
//
//   spam_serve --dataset SF --level 3 --workers 4 --clients 8 --rounds 2
//              [--queue 64] [--deadline CYCLES] [--watchdog MS]
//              [--stream N --ticks T [--tick-interval MS]]
//              [--storm RATE [--seed HEX]] [--watch] [--json out.json]
//              [--swap-at N [--swap-rogue]] [--admin "CMD;CMD..."]
//
// `--stream N` switches the workload from one-shot scenes to N concurrent
// delta streams (DESIGN.md §16): each stream opens a long-lived session
// whose working memory arrives as timed ticks — the dataset's LCC task
// injections dealt over a spam::make_stream_schedule delta schedule — with
// incremental match per tick and a reload of the base working memory at
// close. The rollup then carries the "streams" section (tick latency
// percentiles, deltas/sec, peak resident WM).
//
// `--storm` injects a deterministic fault storm (transient failures, poisoned
// scenes, deadline overruns) to demonstrate quarantine + graceful
// degradation; `--watch` streams the session-id-prefixed firing log; `--json`
// writes the drained server rollup (schema-validated before exit).
//
// `--swap-at N` demonstrates versioned hot-reload (DESIGN.md §15): before the
// clients start, a candidate copy of the LCC pack is staged through the
// static admission gate; when accepted, it is atomically activated once N
// scenes (under `--stream`, N ticks) have completed, while the workload keeps
// running; in-flight scenes finish on the old pack.
// `--swap-rogue` injects an interference regression into the candidate so
// the gate rejects it (AN011) and the server keeps serving the live pack.
// `--admin` runs semicolon-separated admin-channel commands (help / stats /
// pack list / pack verdict <id> / pack swap <id> / pack rollback) after the
// workload, before the drain.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_schema.hpp"
#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "serve/server.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/programs.hpp"
#include "spam/scene_generator.hpp"
#include "spam/stream_schedule.hpp"
#include "util/table.hpp"

using namespace psmsys;

namespace {

struct Options {
  std::string dataset = "SF";
  int level = 3;
  std::size_t workers = 4;
  std::size_t clients = 8;
  std::size_t rounds = 1;          ///< times the task list is replayed as scenes
  std::size_t queue = 64;
  std::uint64_t deadline = 0;      ///< cycles per attempt (0 = unlimited)
  std::uint64_t watchdog_ms = 0;   ///< wall-clock budget per scene (0 = off)
  double storm = 0.0;              ///< fault-injection rate (0 = healthy)
  std::uint64_t seed = 0x5eedULL;
  bool watch = false;
  std::string json_path;
  std::size_t swap_at = 0;         ///< hot-swap after N completed scenes (0 = off)
  bool swap_rogue = false;         ///< make the swapped candidate fail the gate
  std::string admin;               ///< ';'-separated admin commands to run
  std::size_t streams = 0;         ///< concurrent delta streams (0 = one-shot mode)
  std::size_t ticks = 32;          ///< ticks per stream
  std::int64_t tick_interval_ms = -1;  ///< pacing override (-1 = dataset preset)
};

void print_help() {
  std::cout <<
      "usage: spam_serve [options]\n"
      "\n"
      "workload:\n"
      "  --dataset <SF|DC|MOFF>   airport dataset (default SF)\n"
      "  --level <1..4>           LCC decomposition level (default 3)\n"
      "  --rounds <R>             replay the task list R times (default 1)\n"
      "\n"
      "server:\n"
      "  --workers <N>            resident engine contexts (default 4)\n"
      "  --clients <N>            closed-loop submitter threads (default 8)\n"
      "  --queue <N>              admission queue capacity (default 64;\n"
      "                           overflow sheds with a typed reject)\n"
      "  --deadline <CYCLES>      per-attempt cycle deadline (default off)\n"
      "  --watchdog <MS>          wall-clock abort budget per scene (per tick\n"
      "                           for streams; default off)\n"
      "\n"
      "streaming:\n"
      "  --stream <N>             open N concurrent delta streams instead of\n"
      "                           one-shot scenes: each delivers its LCC task\n"
      "                           list as timed WME-delta ticks over a resident\n"
      "                           context (incremental match per tick)\n"
      "  --ticks <T>              ticks per stream (default 32)\n"
      "  --tick-interval <MS>     inter-tick pacing (default: dataset preset)\n"
      "\n"
      "robustness demo:\n"
      "  --storm <RATE>           inject faults at RATE (e.g. 0.1); poisoned\n"
      "                           scenes quarantine, healthy ones are untouched\n"
      "  --seed <HEX>             fault-injection seed (default 5eed)\n"
      "\n"
      "hot-reload demo:\n"
      "  --swap-at <N>            gate a candidate LCC pack before the workload\n"
      "                           and activate it after N completed scenes\n"
      "                           (ticks under --stream); old scenes finish on\n"
      "                           the pack they started with\n"
      "  --swap-rogue             inject an interference regression into the\n"
      "                           candidate: the gate rejects it (AN011) and the\n"
      "                           live pack keeps serving\n"
      "  --admin <cmds>           run ';'-separated admin-channel commands after\n"
      "                           the workload (try \"pack list;stats\")\n"
      "\n"
      "output:\n"
      "  --watch                  stream session-prefixed firing-log lines\n"
      "  --json <file>            write the drained server rollup as JSON\n";
}

[[nodiscard]] bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_help();
      return false;
    } else if (arg == "--dataset") {
      o.dataset = next();
    } else if (arg == "--level") {
      o.level = std::stoi(next());
    } else if (arg == "--rounds") {
      o.rounds = std::stoul(next());
    } else if (arg == "--workers") {
      o.workers = std::stoul(next());
    } else if (arg == "--clients") {
      o.clients = std::stoul(next());
    } else if (arg == "--queue") {
      o.queue = std::stoul(next());
    } else if (arg == "--deadline") {
      o.deadline = std::stoull(next());
    } else if (arg == "--watchdog") {
      o.watchdog_ms = std::stoull(next());
    } else if (arg == "--stream") {
      o.streams = std::stoul(next());
    } else if (arg == "--ticks") {
      o.ticks = std::stoul(next());
    } else if (arg == "--tick-interval") {
      o.tick_interval_ms = std::stoll(next());
    } else if (arg == "--storm") {
      o.storm = std::stod(next());
    } else if (arg == "--seed") {
      o.seed = std::stoull(next(), nullptr, 16);
    } else if (arg == "--watch") {
      o.watch = true;
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--swap-at") {
      o.swap_at = std::stoul(next());
    } else if (arg == "--swap-rogue") {
      o.swap_rogue = true;
    } else if (arg == "--admin") {
      o.admin = next();
    } else {
      throw std::runtime_error("unknown option " + arg);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse_args(argc, argv, options)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "spam_serve: " << e.what() << "\n";
    return 2;
  }

  // The scene, fragments and decomposition outlive the server: task inject
  // closures and the phase externals reference them.
  const auto config = spam::dataset_by_name(options.dataset);
  spam::Scene scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);
  const auto decomposition = spam::lcc_decomposition(options.level, scene, best);
  const spam::PhaseProgram phase = spam::build_lcc_program();
  std::cout << "dataset " << config.name << ": " << scene.size() << " regions, "
            << decomposition.tasks.size() << " LCC level-" << options.level << " tasks\n";

  // Compile-once: every session engine shares these read-only artifacts.
  const auto rulebase = serve::SharedRuleBase::compile(phase.program, phase.externals.get());

  psm::FaultConfig fault_config;
  fault_config.seed = options.seed;
  fault_config.transient_rate = options.storm;
  fault_config.poison_rate = options.storm / 2.0;
  fault_config.overrun_rate = options.storm / 2.0;
  const psm::FaultInjector injector(fault_config);

  serve::ServerOptions server_options;
  server_options.workers = options.workers;
  server_options.queue_capacity = options.queue;
  server_options.base_init = [&scene, init = decomposition.factory.base_init](ops5::Engine& e) {
    e.set_user_data(&scene);  // phase externals reach the polygons through this
    if (init) init(e);
  };
  server_options.session.cycle_deadline = options.deadline;
  if (options.storm > 0.0) {
    server_options.session.injector = &injector;
    if (server_options.session.cycle_deadline == 0) {
      server_options.session.cycle_deadline = 100000;  // contain injected overruns
    }
  }
  if (options.watch) {
    server_options.session.trace_sink = [](const std::string& line) {
      std::cout << line << "\n";
    };
  }
  server_options.watchdog_budget = std::chrono::milliseconds(options.watchdog_ms);
  // The hot-reload gate re-establishes this decomposition's independence
  // certificate over every candidate pack (AN011/AN012 on regression).
  server_options.admission_spec = &decomposition.spec;
  const spam::PhaseSpec& lcc = *spam::phase_spec("lcc");
  server_options.admission_seeds = lcc.seeds;
  server_options.admission_outputs = lcc.outputs;
  serve::Server server(rulebase, server_options);

  // Hot swap: the candidate LCC pack goes through the admission gate and its
  // compile before the clients start, so the swap itself is only the
  // activation, made once enough scenes (or ticks) have completed while the
  // workload keeps running.
  serve::LoadResult staged;
  if (options.swap_at > 0) {
    std::string source = "(pack lcc v2)\n" + spam::lcc_source();
    if (options.swap_rogue) {
      source +=
          "\n(p lcc-rogue\n"
          "   (lcc-task)\n"
          "   (fragment ^id <f> ^best yes)\n"
          "   -->\n"
          "   (make consistency ^constraint 99 ^subject <f> ^object <f> ^result 1))\n";
    }
    serve::PackCandidate candidate;
    candidate.program = std::make_shared<const ops5::Program>(ops5::parse_program(source));
    candidate.externals = phase.externals.get();
    staged = server.stage_pack(candidate);
  }

  // Closed-loop clients: each submits its slice of rounds x tasks, waiting
  // for every report (in-flight <= clients, so the queue never sheds unless
  // --queue is set below --clients). Under --stream the clients are the
  // streams themselves: each opens one long-lived session and delivers its
  // task list as timed WME-delta ticks.
  const std::size_t total = decomposition.tasks.size() * options.rounds;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> ticks_completed{0};  // --stream: --swap-at's clock
  std::atomic<std::uint64_t> quarantined{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<std::uint64_t> shed{0};
  const auto count_status = [&](serve::SceneStatus status) {
    switch (status) {
      case serve::SceneStatus::Completed: ++completed; break;
      case serve::SceneStatus::Quarantined: ++quarantined; break;
      case serve::SceneStatus::Aborted: ++aborted; break;
      default: break;
    }
  };
  std::vector<std::thread> clients;
  if (options.streams > 0) {
    // Deal the task list over a timed delta schedule: arrivals map onto LCC
    // task injections (retractions stay off — a task has no un-arrival).
    spam::StreamScheduleConfig stream_config =
        spam::stream_config_for(config, std::max<std::size_t>(1, total));
    stream_config.ticks = options.ticks;
    stream_config.retract_fraction = 0.0;
    if (options.tick_interval_ms >= 0) {
      stream_config.interval_ms = static_cast<std::uint64_t>(options.tick_interval_ms);
    }
    clients.reserve(options.streams);
    for (std::size_t s = 0; s < options.streams; ++s) {
      clients.emplace_back([&, s, stream_config] {
        auto cfg = stream_config;
        cfg.seed ^= (s + 1) * 0x9e3779b97f4a7c15ULL;  // distinct schedule per stream
        const auto schedule = spam::make_stream_schedule(cfg);
        serve::StreamHandle handle = server.open_stream("stream-" + std::to_string(s));
        if (!handle.admitted()) {
          ++shed;
          return;
        }
        const auto opened_at = std::chrono::steady_clock::now();
        std::future<serve::TickReport> prev;
        const auto settle = [&] {
          if (prev.valid() && prev.get().status == serve::SceneStatus::Completed) {
            ++ticks_completed;
          }
        };
        for (const auto& spec : schedule) {
          std::this_thread::sleep_until(opened_at + std::chrono::milliseconds(spec.at_ms));
          settle();  // closed loop under the pacing
          serve::SceneJob job;
          job.label = "tick";
          job.inject = [&decomposition, spec](ops5::Engine& engine) {
            for (std::size_t item : spec.arrivals) {
              decomposition.tasks[item % decomposition.tasks.size()].inject(engine);
            }
          };
          auto t = handle.tick(std::move(job));
          if (t.admitted()) prev = std::move(t.report);
        }
        settle();
        count_status(handle.close().get().status);
      });
    }
  } else {
    clients.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < total; i += options.clients) {
          const psm::Task& task = decomposition.tasks[i % decomposition.tasks.size()];
          serve::SceneJob job;
          job.label = task.label;
          job.inject = task.inject;
          auto r = server.submit(std::move(job));
          if (!r.admitted()) {
            ++shed;
            continue;
          }
          count_status(r.report.get().status);
        }
      });
    }
  }
  // The swapper activates the staged pack once enough scenes (or ticks) have
  // completed, or when the workload ends first.
  std::atomic<bool> workload_done{false};
  std::thread swapper;
  if (options.swap_at > 0) {
    swapper = std::thread([&] {
      const auto& progress = options.streams > 0 ? ticks_completed : completed;
      std::uint64_t at = 0;
      bool activated = false;
      if (staged.accepted) {
        while ((at = progress.load()) < options.swap_at && !workload_done.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        activated = server.activate_pack(staged.pack);
      }
      std::cout << "hot swap: pack " << staged.pack << " verdict "
                << analysis::admission_decision_name(staged.verdict.decision) << " -> ";
      if (activated) {
        std::cout << "activated after " << at << (options.streams > 0 ? " ticks" : " scenes")
                  << " (old scenes finish on their pack)\n";
      } else {
        std::cout << "NOT activated; live pack keeps serving\n";
      }
    });
  }

  for (auto& t : clients) t.join();
  workload_done.store(true);
  if (swapper.joinable()) swapper.join();

  if (!options.admin.empty()) {
    std::stringstream cmds(options.admin);
    std::string cmd;
    while (std::getline(cmds, cmd, ';')) {
      if (cmd.empty()) continue;
      std::cout << "admin> " << cmd << "\n" << server.admin_talk(cmd) << "\n";
    }
  }

  const serve::ServerStats stats = server.drain();

  util::Table table({"metric", "value"});
  table.add_row({"submitted", util::Table::fmt(stats.submitted)});
  table.add_row({"completed", util::Table::fmt(stats.completed)});
  table.add_row({"quarantined", util::Table::fmt(stats.quarantined)});
  table.add_row({"aborted (watchdog)", util::Table::fmt(stats.aborted)});
  table.add_row({"shed (queue full)", util::Table::fmt(stats.rejected_queue_full)});
  table.add_row({"retries", util::Table::fmt(stats.retries)});
  table.add_row({"scenes/sec", util::Table::fmt(stats.scenes_per_sec, 1)});
  table.add_row({"p50 latency (us)",
                 util::Table::fmt(static_cast<double>(stats.latency.p50_ns) / 1e3, 1)});
  table.add_row({"p99 latency (us)",
                 util::Table::fmt(static_cast<double>(stats.latency.p99_ns) / 1e3, 1)});
  if (options.streams > 0) {
    const auto& st = stats.streams;
    const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
    table.add_row({"streams opened", util::Table::fmt(st.opened)});
    table.add_row({"streams completed", util::Table::fmt(st.completed)});
    table.add_row({"ticks completed", util::Table::fmt(st.ticks_completed)});
    table.add_row({"ticks shed", util::Table::fmt(st.ticks_shed)});
    table.add_row({"ticks/sec", util::Table::fmt(st.ticks_per_sec, 1)});
    table.add_row({"tick p50 (us)",
                   util::Table::fmt(static_cast<double>(st.tick_latency.p50_ns) / 1e3, 1)});
    table.add_row({"tick p99 (us)",
                   util::Table::fmt(static_cast<double>(st.tick_latency.p99_ns) / 1e3, 1)});
    table.add_row({"deltas/sec",
                   util::Table::fmt(wall_s == 0.0
                                        ? 0.0
                                        : static_cast<double>(st.wmes_streamed) / wall_s,
                                    1)});
    table.add_row({"peak resident wm", util::Table::fmt(st.peak_resident_wm)});
  }
  if (options.swap_at > 0) {
    table.add_row({"packs loaded", util::Table::fmt(stats.packs_loaded)});
    table.add_row({"pack swaps", util::Table::fmt(stats.pack_swaps)});
    table.add_row({"packs rejected", util::Table::fmt(stats.packs_rejected)});
    table.add_row({"active pack", util::Table::fmt(stats.active_pack)});
  }
  table.print(std::cout, options.clients > 0 ? "drained server rollup" : "rollup");

  const auto doc = stats.to_json();
  const auto violations = obs::validate_serve_rollup(doc);
  for (const auto& v : violations) std::cerr << "rollup schema violation: " << v << "\n";
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    out << doc.dump(2) << "\n";
    std::cout << "wrote " << options.json_path << "\n";
  }

  const bool consistent = stats.completed == completed.load() &&
                          stats.quarantined == quarantined.load() &&
                          stats.aborted == aborted.load() &&
                          stats.rejected_queue_full == shed.load();
  if (!consistent) std::cerr << "accounting mismatch between clients and rollup\n";
  return (violations.empty() && consistent && stats.completed > 0) ? 0 : 1;
}
