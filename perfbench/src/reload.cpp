#include "reload.hpp"

#include <algorithm>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>

#include "analysis/admission.hpp"
#include "analysis/interference.hpp"
#include "analysis/lint.hpp"
#include "analysis/rete_static.hpp"
#include "analysis/value_domain.hpp"
#include "ops5/parser.hpp"

namespace perfbench {

using namespace psmsys;

const std::vector<std::string> kLccSeedClasses = {"fragment", "constraint", "support",
                                                  "lcc-task"};
const std::vector<std::string> kLccOutputClasses = {"context", "consistency", "relation"};

namespace {

constexpr std::size_t kProbeRounds = 4;  ///< probe pairs before giving up

/// Holds the first probes until one per worker has started, so every worker
/// dequeues one and rebuilds its context for the new pack.
struct ProbeGate {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::size_t expected = 0;
};

[[nodiscard]] serve::SceneJob probe_job(const psm::Task& task, std::shared_ptr<ProbeGate> gate) {
  serve::SceneJob job;
  job.label = "probe";
  job.inject = [&task, gate](ops5::Engine& e) {
    if (gate) {
      std::unique_lock<std::mutex> lock(gate->mu);
      ++gate->arrived;
      gate->cv.notify_all();
      gate->cv.wait_for(lock, std::chrono::milliseconds(200),
                        [&gate] { return gate->arrived >= gate->expected; });
    }
    task.inject(e);
  };
  return job;
}

[[nodiscard]] std::uint64_t workers_on(const serve::Server& server, std::uint64_t pack) {
  for (const serve::PackInfo& info : server.packs()) {
    if (info.id == pack) return info.workers_on;
  }
  return 0;
}

[[nodiscard]] std::vector<ops5::ClassIndex> resolve(const ops5::Program& program,
                                                    const std::vector<std::string>& names) {
  std::vector<ops5::ClassIndex> out;
  for (const std::string& name : names) {
    if (const auto sym = program.symbols().find(name)) {
      if (const auto cls = program.class_index(*sym)) out.push_back(*cls);
    }
  }
  return out;
}

struct Layers {
  std::vector<double> stage_ms, activate_ms, rebuild_ms, compile_ms, admit_ms, lint_ms,
      value_domain_ms, rete_static_ms, interference_ms;
};

/// Each analysis layer and the compile, called directly on the candidate.
void time_analysis(const spam::Decomposition& lcc, const spam::PhaseProgram& phase,
                   const serve::Server& server,
                   const std::shared_ptr<const ops5::Program>& live,
                   const std::shared_ptr<const ops5::Program>& candidate, Result& result,
                   Layers& layers) {
  auto t = Clock::now();
  const auto lap = [&t](std::vector<double>& into) {
    const auto now = Clock::now();
    into.push_back(ms_between(t, now));
    t = now;
  };

  t = Clock::now();
  (void)serve::SharedRuleBase::compile(candidate, phase.externals.get(),
                                       server.rulebase().engine_options());
  lap(layers.compile_ms);

  analysis::PackInput live_input;
  live_input.program = live;
  live_input.seed_classes = kLccSeedClasses;
  live_input.output_classes = kLccOutputClasses;
  live_input.spec = &lcc.spec;
  analysis::PackInput candidate_input;
  candidate_input.program = candidate;
  candidate_input.seed_classes = kLccSeedClasses;
  candidate_input.output_classes = kLccOutputClasses;
  t = Clock::now();
  const analysis::AdmissionVerdict verdict =
      analysis::AnalysisPipeline().admit(&live_input, candidate_input);
  lap(layers.admit_ms);
  if (!verdict.accepted()) result.fail("direct admission rejected the candidate");

  analysis::LintOptions lint;
  lint.seed_classes = resolve(*candidate, kLccSeedClasses);
  lint.output_classes = resolve(*candidate, kLccOutputClasses);
  t = Clock::now();
  (void)analysis::lint_program(*candidate, lint);
  lap(layers.lint_ms);

  analysis::ValueDomainOptions domains;
  domains.seed_classes = lint.seed_classes;
  domains.output_classes = lint.output_classes;
  t = Clock::now();
  (void)analysis::analyze_value_domains(*candidate, domains);
  lap(layers.value_domain_ms);

  t = Clock::now();
  (void)analysis::analyze_rete(*candidate, analysis::ReteStaticOptions{});
  lap(layers.rete_static_ms);

  t = Clock::now();
  const auto rebound = analysis::rebind_spec(lcc.spec, candidate);
  if (rebound) (void)analysis::check_interference(*rebound);
  lap(layers.interference_ms);
  if (!rebound) result.fail("the live certificate does not rebind onto the candidate");
}

}  // namespace

std::uint64_t trace_hot_reloads(serve::Server& server, const spam::Decomposition& lcc,
                                const spam::PhaseProgram& phase, std::size_t probe,
                                std::size_t reloads, Result& result) {
  const std::size_t workers = server.stats().workers;
  const std::string source = spam::lcc_source();
  const psm::Task& probe_task = lcc.tasks.at(probe);
  Layers layers;
  std::uint64_t probes = 0;
  std::shared_ptr<const ops5::Program> live = server.rulebase().program_ptr();
  std::uint64_t previous_pack = server.active_pack();
  const double rss_start = proc_status_mb("VmRSS");

  for (std::size_t version = 2; version < reloads + 2; ++version) {
    serve::PackCandidate candidate;
    candidate.program = std::make_shared<const ops5::Program>(
        ops5::parse_program("(pack lcc v" + std::to_string(version) + ")\n" + source));
    candidate.externals = phase.externals.get();

    const auto t0 = Clock::now();
    const serve::LoadResult load = server.stage_pack(candidate);
    const auto t1 = Clock::now();
    std::string error;
    if (!load.accepted || !server.activate_pack(load.pack, &error)) {
      result.fail("reload v" + std::to_string(version) + " verdict " +
                  std::string(analysis::admission_decision_name(load.verdict.decision)) + " " +
                  error);
      continue;
    }
    const auto t2 = Clock::now();
    if (server.active_pack() != load.pack || load.pack <= previous_pack) {
      result.fail("active pack did not advance past " + std::to_string(previous_pack));
      continue;
    }
    previous_pack = load.pack;

    // Probe rounds until every worker has rebuilt onto the new pack; the
    // rebuild happens at dequeue, so it lands in a probe's queued time.
    double first_latency_ms = 0.0;
    bool probes_ok = true;
    for (std::size_t round = 0; round < kProbeRounds && probes_ok; ++round) {
      auto gate = std::make_shared<ProbeGate>();
      gate->expected = workers;
      std::vector<std::future<serve::SceneReport>> pending;
      for (std::size_t w = 0; w < workers; ++w) {
        serve::SubmitResult r = server.submit(probe_job(probe_task, gate));
        if (!r.admitted()) {
          probes_ok = false;
          break;
        }
        pending.push_back(std::move(r.report));
      }
      for (auto& report : pending) {
        const serve::SceneReport r = report.get();
        probes_ok = probes_ok && r.status == serve::SceneStatus::Completed;
        probes += r.status == serve::SceneStatus::Completed ? 1 : 0;
        const double ms = static_cast<double>(r.latency_ns) / 1e6;
        if (round == 0) first_latency_ms = first_latency_ms == 0.0 ? ms : std::min(first_latency_ms, ms);
      }
      if (workers_on(server, load.pack) == workers) break;
    }
    if (!probes_ok || workers_on(server, load.pack) != workers) {
      result.fail("probes did not complete on every worker for v" + std::to_string(version));
      continue;
    }
    serve::SubmitResult steady = server.submit(probe_job(probe_task, nullptr));
    if (steady.admitted()) {
      const serve::SceneReport r = steady.report.get();
      probes += r.status == serve::SceneStatus::Completed ? 1 : 0;
      layers.rebuild_ms.push_back(first_latency_ms - static_cast<double>(r.latency_ns) / 1e6);
    }
    layers.stage_ms.push_back(ms_between(t0, t1));
    layers.activate_ms.push_back(ms_between(t1, t2));
    result.count("reload.verdict_warnings", load.verdict.warnings());

    time_analysis(lcc, phase, server, live, candidate.program, result, layers);
    live = candidate.program;
  }
  const double rss_growth_mb = proc_status_mb("VmRSS") - rss_start;

  result.layers.insert(result.layers.end(), {
      {"serve.stage_ms", mean(layers.stage_ms)},
      {"serve.activate_ms", mean(layers.activate_ms)},
      {"serve.rebuild_ms", mean(layers.rebuild_ms)},
      {"serve.compile_ms", mean(layers.compile_ms)},
      {"analysis.admit_ms", mean(layers.admit_ms)},
      {"analysis.lint_ms", mean(layers.lint_ms)},
      {"analysis.value_domain_ms", mean(layers.value_domain_ms)},
      {"analysis.rete_static_ms", mean(layers.rete_static_ms)},
      {"analysis.interference_ms", mean(layers.interference_ms)},
      {"serve.rss_per_pack_mb", rss_growth_mb / static_cast<double>(std::max<std::size_t>(1, reloads))},
  });
  return probes;
}

}  // namespace perfbench
