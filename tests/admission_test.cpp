// Tests for the static admission pipeline (analysis/admission): the
// cross-version semantic diff (AN010-AN013), spec rebinding by name,
// production fingerprints, verdict schema validation, and the golden
// byte-deterministic verdicts over the SF/DC/MOFF LCC certificates.

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/admission.hpp"
#include "analysis/interference.hpp"
#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "ops5/parser.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/scene_generator.hpp"

namespace {

using namespace psmsys;
using analysis::AdmissionDecision;
using analysis::AdmissionVerdict;
using analysis::AnalysisPipeline;
using analysis::PackInput;

[[nodiscard]] std::shared_ptr<const ops5::Program> parse(const std::string& source) {
  return std::make_shared<const ops5::Program>(ops5::parse_program(source));
}

/// True when some section carries a finding with this wire code.
[[nodiscard]] bool has_code(const AdmissionVerdict& verdict, const std::string& code) {
  for (const auto& section : verdict.sections) {
    for (const auto& f : section.findings) {
      if (f.code == code) return true;
    }
  }
  return false;
}

[[nodiscard]] const analysis::VerdictSection& section(const AdmissionVerdict& verdict,
                                                      const std::string& analyzer) {
  for (const auto& s : verdict.sections) {
    if (s.analyzer == analyzer) return s;
  }
  ADD_FAILURE() << "missing section " << analyzer;
  static const analysis::VerdictSection empty;
  return empty;
}

// ---------------------------------------------------------------------------
// Candidate-only checks and pack identity
// ---------------------------------------------------------------------------

constexpr const char* kBase = R"(
(pack demo 1)
(literalize ping n)
(literalize pong n m)
(p bounce
   (ping ^n <n>)
   -->
   (make pong ^n <n> ^m 0))
)";

TEST(Admission, CandidateOnlyCheckHasNoCrossVersionSections) {
  PackInput candidate;
  candidate.program = parse(kBase);
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(nullptr, candidate);

  EXPECT_EQ(verdict.live, "");
  EXPECT_EQ(verdict.candidate, "demo@1");  // from the (pack ...) metadata
  ASSERT_EQ(verdict.sections.size(), 3u);
  EXPECT_EQ(verdict.sections[0].analyzer, "lint");
  EXPECT_EQ(verdict.sections[1].analyzer, "rete_static");
  EXPECT_EQ(verdict.sections[2].analyzer, "value_domains");
  EXPECT_TRUE(verdict.accepted());
  EXPECT_TRUE(obs::validate_admission_verdict(verdict.to_json()).empty());
}

TEST(Admission, IdenticalPacksPassEverySection) {
  PackInput live, candidate;
  live.program = parse(kBase);
  candidate.program = parse(kBase);
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);

  // lint, rete_static, value_domains, interference ("none"), semantic_diff.
  ASSERT_EQ(verdict.sections.size(), 5u);
  EXPECT_EQ(verdict.decision, AdmissionDecision::Pass);
  const auto& diff = section(verdict, "semantic_diff");
  EXPECT_EQ(diff.errors, 0u);
  EXPECT_EQ(diff.warnings, 0u);
  EXPECT_TRUE(obs::validate_admission_verdict(verdict.to_json()).empty());
}

TEST(Admission, ValueRuleRejectsCandidate) {
  // pong.tag is only ever written the symbol `ok`, so `typo`'s numeric test
  // on it can never pass: AN014, an error, in the value_domains section.
  PackInput candidate;
  candidate.program = parse(R"(
(literalize ping n)
(literalize pong n tag)
(p bounce (ping ^n <n>) --> (make pong ^n <n> ^tag ok))
(p typo (pong ^tag 3) --> (make ping ^n 0))
)");
  candidate.seed_classes = {{"ping"}};
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(nullptr, candidate);

  const auto& values = section(verdict, "value_domains");
  EXPECT_EQ(values.decision, AdmissionDecision::Reject);
  ASSERT_EQ(values.findings.size(), 1u);
  EXPECT_EQ(values.findings[0].code, "AN014");
  EXPECT_EQ(values.findings[0].severity, "error");
  EXPECT_EQ(values.findings[0].production, "typo");
  EXPECT_EQ(verdict.decision, AdmissionDecision::Reject);
  EXPECT_FALSE(verdict.accepted());
  EXPECT_TRUE(obs::validate_admission_verdict(verdict.to_json()).empty());
}

TEST(Admission, RequiresFrozenPrograms) {
  PackInput candidate;
  candidate.program = std::make_shared<const ops5::Program>();
  const AnalysisPipeline pipeline;
  EXPECT_THROW((void)pipeline.admit(nullptr, candidate), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Semantic diff: added / removed / modified productions, AN013
// ---------------------------------------------------------------------------

TEST(Admission, DiffClassifiesProductionsByFingerprint) {
  PackInput live, candidate;
  live.program = parse(R"(
(literalize ping n)
(literalize pong n m)
(p keep (ping ^n <n>) --> (make pong ^n <n> ^m 0))
(p drop (ping ^n 1) --> (make pong ^n 1 ^m 1))
(p change (ping ^n <n>) --> (make pong ^n <n> ^m 2))
)");
  candidate.program = parse(R"(
(literalize ping n)
(literalize pong n m)
(p keep (ping ^n <n>) --> (make pong ^n <n> ^m 0))
(p change (ping ^n <n>) --> (make pong ^n <n> ^m 3))
(p fresh (ping ^n 9) --> (make pong ^n 9 ^m 9))
)");
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);
  const auto& diff = section(verdict, "semantic_diff");

  const auto names = [&](const char* key) {
    std::vector<std::string> out;
    const obs::json::Value details(diff.details);
    const obs::json::Value* v = details.find(key);
    if (v != nullptr) {
      for (const auto& e : v->as_array()) out.push_back(e.as_string());
    }
    return out;
  };
  EXPECT_EQ(names("added"), std::vector<std::string>{"fresh"});
  EXPECT_EQ(names("removed"), std::vector<std::string>{"drop"});
  EXPECT_EQ(names("modified"), std::vector<std::string>{"change"});
}

TEST(Admission, FingerprintIgnoresFormattingButNotConstants) {
  const auto a = parse("(literalize ping n)\n(p r (ping ^n <x>) --> (make ping ^n 1))");
  const auto b =
      parse("(literalize ping n)\n(p r (ping ^n    <x>)\n -->\n (make ping ^n 1))");
  const auto c = parse("(literalize ping n)\n(p r (ping ^n <x>) --> (make ping ^n 2))");
  const auto fp = [](const std::shared_ptr<const ops5::Program>& p) {
    return analysis::production_fingerprint(*p, p->productions().front());
  };
  EXPECT_EQ(fp(a), fp(b));
  EXPECT_NE(fp(a), fp(c));
}

TEST(Admission, OutputClassSchemaChangeIsAn013Error) {
  PackInput live, candidate;
  live.program = parse(R"(
(literalize ping n)
(literalize pong n m)
(p bounce (ping ^n <n>) --> (make pong ^n <n> ^m 0))
)");
  live.output_classes = {{"pong"}};
  candidate.program = parse(R"(
(literalize ping n)
(literalize pong n extra)
(p bounce (ping ^n <n>) --> (make pong ^n <n>))
)");
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);

  EXPECT_FALSE(verdict.accepted());
  EXPECT_TRUE(has_code(verdict, "AN013"));
  EXPECT_EQ(section(verdict, "semantic_diff").decision, AdmissionDecision::Reject);
}

TEST(Admission, NonOutputClassChangeIsAn013Warning) {
  PackInput live, candidate;
  live.program = parse(R"(
(literalize ping n scratch)
(p r (ping ^n <n>) --> (halt))
)");
  candidate.program = parse(R"(
(literalize ping n)
(p r (ping ^n <n>) --> (halt))
)");
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);

  EXPECT_TRUE(verdict.accepted());
  EXPECT_TRUE(has_code(verdict, "AN013"));
  EXPECT_EQ(verdict.decision, AdmissionDecision::Warn);
}

// ---------------------------------------------------------------------------
// AN010: static cost / beta-bound regressions
// ---------------------------------------------------------------------------

constexpr const char* kCheapRule = R"(
(literalize item k v)
(literalize out k)
(p hot (item ^k <k> ^v 1) --> (make out ^k <k>))
)";

// Same production name, wildly more expensive shape: four unconstrained
// joins over `item` explode the static join-cost estimate and beta bound.
constexpr const char* kHotRule = R"(
(literalize item k v)
(literalize out k)
(p hot
   (item ^k <k>)
   (item ^v <a>)
   (item ^v <b>)
   (item ^v <c>)
   -->
   (make out ^k <k>))
)";

TEST(Admission, CostRegressionBeyondRejectRatioIsAn010Error) {
  PackInput live, candidate;
  live.program = parse(kCheapRule);
  candidate.program = parse(kHotRule);
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);

  EXPECT_FALSE(verdict.accepted());
  EXPECT_TRUE(has_code(verdict, "AN010"));
}

// The same rule guarded against re-making its output: one negated CE adds
// cost (x2.41) without raising the beta-growth degree.
constexpr const char* kGuardedRule = R"(
(literalize item k v)
(literalize out k)
(p hot (item ^k <k> ^v 1) -(out ^k <k>) --> (make out ^k <k>))
)";

TEST(Admission, CostRegressionBetweenWarnAndRejectRatiosIsAn010Warning) {
  PackInput live, candidate;
  live.program = parse(kCheapRule);
  candidate.program = parse(kGuardedRule);
  const AdmissionVerdict verdict = AnalysisPipeline().admit(&live, candidate);

  EXPECT_EQ(verdict.decision, AdmissionDecision::Warn);
  EXPECT_EQ(verdict.errors(), 0u);
  const auto& diff = section(verdict, "semantic_diff");
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].code, "AN010");
  EXPECT_EQ(diff.findings[0].severity, "warning");
  EXPECT_EQ(diff.findings[0].message,
            "static match cost regression: 5.00 -> 12.07 (x2.41)");
}

// A second join raises the beta-growth degree from 1 to 2 while the cost
// and the beta bound stay within their ratios: only the degree warns.
TEST(Admission, BetaDegreeGrowthAloneIsAn010Warning) {
  PackInput live, candidate;
  live.program = parse(kCheapRule);
  candidate.program = parse(R"(
(literalize item k v)
(literalize out k)
(p hot (item ^k <k> ^v 1) (item ^k <k>) --> (make out ^k <k>))
)");
  const AdmissionVerdict verdict = AnalysisPipeline().admit(&live, candidate);

  EXPECT_EQ(verdict.decision, AdmissionDecision::Warn);
  const auto& diff = section(verdict, "semantic_diff");
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].code, "AN010");
  EXPECT_EQ(diff.findings[0].severity, "warning");
  EXPECT_EQ(diff.findings[0].message, "beta growth degree increased: O(N^1) -> O(N^2)");
}

TEST(Admission, StrictTurnsAWarningIntoAReject) {
  PackInput live, candidate;
  live.program = parse(kCheapRule);
  candidate.program = parse(kGuardedRule);
  const AdmissionVerdict verdict = AnalysisPipeline(/*strict=*/true).admit(&live, candidate);

  EXPECT_EQ(verdict.decision, AdmissionDecision::Reject);
  EXPECT_FALSE(verdict.accepted());
  EXPECT_EQ(verdict.errors(), 0u);
  EXPECT_EQ(verdict.warnings(), 1u);
  EXPECT_EQ(section(verdict, "semantic_diff").decision, AdmissionDecision::Reject);
}

TEST(Admission, SectionKeepsSixtyFourFindingsWithExactCounts) {
  // The candidate drops 70 classes: the two declared outputs are AN013
  // errors, the other 68 AN013 warnings.
  std::string live_source = "(literalize ping n)\n";
  for (int i = 0; i < 70; ++i) live_source += "(literalize c" + std::to_string(i) + " a)\n";
  live_source += "(p r (ping ^n <n>) --> (halt))\n";
  PackInput live, candidate;
  live.program = parse(live_source);
  live.output_classes = std::vector<std::string>{"c0", "c1"};
  candidate.program = parse(R"(
(literalize ping n)
(p r (ping ^n <n>) --> (halt))
)");
  const AdmissionVerdict verdict = AnalysisPipeline().admit(&live, candidate);

  const auto& diff = section(verdict, "semantic_diff");
  EXPECT_EQ(diff.findings.size(), 64u);
  EXPECT_EQ(diff.errors, 2u);
  EXPECT_EQ(diff.warnings, 68u);
  EXPECT_EQ(diff.decision, AdmissionDecision::Reject);
  const auto truncated = [](const analysis::VerdictSection& s) {
    return std::any_of(s.details.begin(), s.details.end(), [](const auto& kv) {
      return kv.first == "findings_truncated" && kv.second.as_bool();
    });
  };
  EXPECT_TRUE(truncated(diff));
  // Sections under the cap carry no truncation flag.
  EXPECT_FALSE(truncated(section(verdict, "lint")));
}

// ---------------------------------------------------------------------------
// Interference recheck: AN011 / AN012 and spec rebinding
// ---------------------------------------------------------------------------

/// A two-task decomposition over the ping/pong base: each task injects its
/// own ping and writes pong keyed by ^n, provably disjoint.
[[nodiscard]] analysis::DecompositionSpec make_spec(
    const std::shared_ptr<const ops5::Program>& program) {
  analysis::DecompositionSpec spec;
  spec.program = program;
  const auto cls = [&](const char* name) {
    return *program->class_index(*program->symbols().find(name));
  };
  spec.base_classes = {};
  analysis::ResultClassSpec result;
  result.cls = cls("pong");
  result.key_slots = {program->wme_class(cls("pong")).slot_of(*program->symbols().find("n"))};
  spec.result_classes = {result};
  for (std::uint64_t t = 0; t < 2; ++t) {
    analysis::TaskSpec task;
    task.task_id = t;
    task.label = "task-" + std::to_string(t);
    analysis::TaskWmeSpec wme;
    wme.cls = cls("ping");
    wme.slots = {{program->wme_class(cls("ping")).slot_of(*program->symbols().find("n")),
                  ops5::Value(static_cast<double>(t))}};
    task.wmes = {wme};
    spec.tasks.push_back(std::move(task));
  }
  return spec;
}

constexpr const char* kIndependent = R"(
(literalize ping n)
(literalize pong n m)
(p bounce (ping ^n <n>) --> (make pong ^n <n> ^m 0))
)";

// The rogue production writes pong with a CONSTANT key from any task's ping:
// two tasks collide on ^n 7 — the injected interference regression.
constexpr const char* kRogue = R"(
(literalize ping n)
(literalize pong n m)
(p bounce (ping ^n <n>) --> (make pong ^n <n> ^m 0))
(p rogue (ping) --> (make pong ^n 7 ^m 1))
)";

TEST(Admission, InjectedInterferenceEdgeIsAn011Reject) {
  const auto live_program = parse(kIndependent);
  const analysis::DecompositionSpec spec = make_spec(live_program);
  ASSERT_TRUE(analysis::check_interference(spec).independent());

  PackInput live, candidate;
  live.program = live_program;
  live.spec = &spec;
  candidate.program = parse(kRogue);
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);

  EXPECT_FALSE(verdict.accepted());
  EXPECT_TRUE(has_code(verdict, "AN011"));
  EXPECT_TRUE(has_code(verdict, "AN012"));  // certificate invalidated
  EXPECT_EQ(section(verdict, "interference").decision, AdmissionDecision::Reject);
  EXPECT_TRUE(obs::validate_admission_verdict(verdict.to_json()).empty());
}

TEST(Admission, UnbindableSpecIsAn012) {
  const auto live_program = parse(kIndependent);
  const analysis::DecompositionSpec spec = make_spec(live_program);

  PackInput live, candidate;
  live.program = live_program;
  live.spec = &spec;
  // The candidate dropped the ping class entirely: the certificate cannot
  // even be restated, which must reject — not silently skip the recheck.
  candidate.program = parse(R"(
(literalize pong n m)
(p noop (pong ^n <n>) --> (halt))
)");
  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);

  EXPECT_FALSE(verdict.accepted());
  EXPECT_TRUE(has_code(verdict, "AN012"));
}

TEST(Admission, RebindSpecTranslatesByName) {
  const auto live_program = parse(kIndependent);
  const analysis::DecompositionSpec spec = make_spec(live_program);

  // Same classes, DIFFERENT declaration order — every index shifts, so a
  // spec carried over by index would be wrong; by-name rebinding is exact.
  const auto target = parse(R"(
(literalize pong m n)
(literalize ping extra n)
(p bounce (ping ^n <n>) --> (make pong ^n <n> ^m 0))
)");
  std::string error;
  const auto rebound = analysis::rebind_spec(spec, target, &error);
  ASSERT_TRUE(rebound.has_value()) << error;
  EXPECT_TRUE(analysis::check_interference(*rebound).independent());

  const auto broken = parse("(literalize other x)\n(p r (other ^x 1) --> (halt))");
  EXPECT_FALSE(analysis::rebind_spec(spec, broken, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Determinism and golden verdicts over the shipped certificates
// ---------------------------------------------------------------------------

TEST(Admission, VerdictJsonIsByteDeterministic) {
  const auto live_program = parse(kIndependent);
  const analysis::DecompositionSpec spec = make_spec(live_program);
  PackInput live, candidate;
  live.program = live_program;
  live.spec = &spec;
  candidate.program = parse(kRogue);
  const AnalysisPipeline pipeline;
  const std::string once = pipeline.admit(&live, candidate).to_json().dump(2);
  const std::string twice = pipeline.admit(&live, candidate).to_json().dump(2);
  EXPECT_EQ(once, twice);
}

/// The golden gate: the built-in LCC pack, judged against itself under the
/// dataset's level-3 independence certificate — exactly what
/// `spam_lint --gate @lcc NEW --gate-dataset <ds>` computes. Byte-identical
/// verdicts are the regression surface for every analyzer at once.
void golden_verdict(const std::string& dataset, const std::string& file) {
  const spam::DatasetConfig config = spam::dataset_by_name(dataset);
  const spam::Scene scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);
  const spam::Decomposition decomposition = spam::lcc_decomposition(3, scene, best);

  PackInput live;
  std::string ds_lower = dataset;
  for (auto& c : ds_lower) c = static_cast<char>(std::tolower(c));
  live.label = ds_lower + "-lcc-L3";
  live.program = decomposition.spec.program;
  live.spec = &decomposition.spec;
  const spam::PhaseSpec& lcc = *spam::phase_spec("lcc");
  live.seed_classes = lcc.seeds;
  live.output_classes = lcc.outputs;

  PackInput candidate;
  candidate.label = "lcc";
  candidate.program = parse(spam::lcc_source());
  candidate.seed_classes = live.seed_classes;
  candidate.output_classes = live.output_classes;

  const AnalysisPipeline pipeline;
  const AdmissionVerdict verdict = pipeline.admit(&live, candidate);
  EXPECT_TRUE(verdict.accepted());
  EXPECT_TRUE(obs::validate_admission_verdict(verdict.to_json()).empty());
  const std::string text = verdict.to_json().dump(2) + "\n";

  const std::string path = std::string(PSMSYS_TEST_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with: spam_lint --gate @lcc <lcc.ops5> "
                     "--gate-dataset " << ds_lower << " --verdict-out " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), text) << "admission verdict diverged from the golden file; "
                               "if the change is intended, update " << path;
}

TEST(AdmissionGolden, SfLccLevel3) { golden_verdict("SF", "admission_sf.json"); }
TEST(AdmissionGolden, DcLccLevel3) { golden_verdict("DC", "admission_dc.json"); }
TEST(AdmissionGolden, MoffLccLevel3) { golden_verdict("MOFF", "admission_moff.json"); }

}  // namespace
