// spam_lint: static analysis front end for OPS5 rule bases and SPAM task
// decompositions.
//
//   spam_lint --phases                      lint the generated rtf/lcc/fa/model bases
//   spam_lint FILE... [--seeds a,b,c]       lint OPS5 source files (the lint rules
//                                           plus the value-domain rules AN014-AN017,
//                                           seeded from --seeds/--outputs)
//   spam_lint --cpp FILE [--seeds a,b,c]    lint OPS5 programs embedded in C++ raw strings
//   spam_lint --interference sf|dc|moff|all [--level N]
//                                           certify task decompositions interference-free
//   spam_lint --rete-report                 emit the Rete static-analysis JSON report
//   spam_lint --costs                       print per-production static match costs
//   spam_lint --out DIR                     write reports to DIR/<label>.rete.json
//   spam_lint --outputs a,b,c               classes the control process extracts
//                                           (enables the AN008 dead-production and
//                                           AN017 dead-write checks)
//   spam_lint --gate OLD NEW                run the full admission pipeline on the
//                                           candidate pack NEW against the live pack
//                                           OLD (files, or @rtf/@lcc/@fa/@model for
//                                           the built-in phase bases) and print the
//                                           AdmissionVerdict
//   spam_lint --gate-dataset sf|dc|moff     attach the dataset's LCC independence
//                                           certificate (at --level, default 3) to
//                                           the live side of --gate @lcc NEW, arming
//                                           the AN011/AN012 interference recheck
//   spam_lint --verdict-out FILE            write the verdict JSON to FILE
//   spam_lint --dump-phase NAME             print a built-in phase source (for
//                                           deriving candidate packs in CI)
//   spam_lint --list-rules                  print every lint rule with its default
//                                           severity and one-line description
//   spam_lint --strict                      treat warnings as failures
//
// Exit status: 0 = clean (gate: pass/warn), 1 = error-severity findings (or
// any findings with --strict) or interference conflicts or a rejected gate,
// 2 = usage or parse failure.

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/interference.hpp"
#include "analysis/lint.hpp"
#include "analysis/rete_static.hpp"
#include "analysis/value_domain.hpp"
#include "ops5/parser.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/programs.hpp"
#include "spam/scene_generator.hpp"

namespace {

using namespace psmsys;

struct Options {
  bool phases = false;
  bool strict = false;
  bool rete_report = false;
  bool costs = false;
  bool list_rules = false;
  std::string out_dir;  // empty = reports go to stdout
  std::vector<std::string> files;
  std::vector<std::string> cpp_files;
  std::vector<std::string> seeds;
  std::vector<std::string> outputs;
  std::vector<std::string> interference;  // dataset names, lower case
  int level = 0;                          // 0 = the experiment levels {4,3,2}
  std::string gate_old;                   // --gate live pack (file or @phase)
  std::string gate_new;                   // --gate candidate pack
  std::string gate_dataset;               // certificate source for --gate
  std::string verdict_out;                // verdict JSON destination
  std::string dump_phase;                 // built-in phase source to print
};

void usage(std::ostream& os) {
  os << "usage: spam_lint [--phases] [FILE...] [--cpp FILE] [--seeds a,b,c]\n"
        "                 [--outputs a,b,c] [--interference sf|dc|moff|all [--level N]]\n"
        "                 [--gate OLD NEW [--gate-dataset sf|dc|moff] [--verdict-out FILE]]\n"
        "                 [--dump-phase rtf|lcc|fa|model] [--list-rules]\n"
        "                 [--rete-report] [--costs] [--out DIR] [--strict]\n";
}

[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[nodiscard]] std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--phases") {
      opt.phases = true;
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "--rete-report") {
      opt.rete_report = true;
    } else if (arg == "--costs") {
      opt.costs = true;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--out") {
      const auto value = next();
      if (!value) return std::nullopt;
      opt.out_dir = *value;
    } else if (arg == "--outputs") {
      const auto value = next();
      if (!value) return std::nullopt;
      for (auto& s : split_csv(*value)) opt.outputs.push_back(std::move(s));
    } else if (arg == "--cpp") {
      const auto value = next();
      if (!value) return std::nullopt;
      opt.cpp_files.push_back(*value);
    } else if (arg == "--seeds") {
      const auto value = next();
      if (!value) return std::nullopt;
      for (auto& s : split_csv(*value)) opt.seeds.push_back(std::move(s));
    } else if (arg == "--interference") {
      const auto value = next();
      if (!value) return std::nullopt;
      if (*value == "all") {
        opt.interference = {"sf", "dc", "moff"};
      } else {
        opt.interference.push_back(*value);
      }
    } else if (arg == "--level") {
      const auto value = next();
      if (!value) return std::nullopt;
      opt.level = std::atoi(value->c_str());
      if (opt.level < 1 || opt.level > 4) return std::nullopt;
    } else if (arg == "--gate") {
      const auto old_ref = next();
      const auto new_ref = next();
      if (!old_ref || !new_ref) return std::nullopt;
      opt.gate_old = *old_ref;
      opt.gate_new = *new_ref;
    } else if (arg == "--gate-dataset") {
      const auto value = next();
      if (!value) return std::nullopt;
      opt.gate_dataset = *value;
    } else if (arg == "--verdict-out") {
      const auto value = next();
      if (!value) return std::nullopt;
      opt.verdict_out = *value;
    } else if (arg == "--dump-phase") {
      const auto value = next();
      if (!value) return std::nullopt;
      opt.dump_phase = *value;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      return std::nullopt;
    } else {
      opt.files.emplace_back(arg);
    }
  }
  if (!opt.phases && opt.files.empty() && opt.cpp_files.empty() &&
      opt.interference.empty() && opt.gate_new.empty() && opt.dump_phase.empty() &&
      !opt.list_rules) {
    return std::nullopt;
  }
  return opt;
}

[[nodiscard]] std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extracts the contents of C++ raw string literals `R"(...)"` that contain an
/// OPS5 program (identified by a `(literalize` declaration).
[[nodiscard]] std::vector<std::string> embedded_programs(const std::string& cpp) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = cpp.find("R\"(", pos)) != std::string::npos) {
    const std::size_t begin = pos + 3;
    const std::size_t end = cpp.find(")\"", begin);
    if (end == std::string::npos) break;
    std::string body = cpp.substr(begin, end - begin);
    if (body.find("(literalize") != std::string::npos) out.push_back(std::move(body));
    pos = end + 2;
  }
  return out;
}

struct LintTally {
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

/// Resolves class names against the program's symbol table into `out`.
/// Leaves `out` unset when `names` is empty (the corresponding whole-program
/// checks stay disabled).
[[nodiscard]] bool resolve_classes(const ops5::Program& program, const std::string& label,
                                   const std::vector<std::string>& names, const char* what,
                                   std::optional<std::vector<ops5::ClassIndex>>& out) {
  if (names.empty()) return true;
  out.emplace();
  for (const auto& name : names) {
    const auto sym = program.symbols().find(name);
    const auto cls = sym ? program.class_index(*sym) : std::nullopt;
    if (!cls) {
      std::cerr << label << ": unknown " << what << " class '" << name << "'\n";
      return false;
    }
    out->push_back(*cls);
  }
  return true;
}

/// Runs the Rete static analyzer and emits the report per the CLI flags:
/// the JSON report to --out DIR (or stdout), the cost table to stdout.
/// Returns false when a report file cannot be written.
[[nodiscard]] bool emit_rete_analysis(const ops5::Program& program, const std::string& label,
                                      const Options& opt) {
  analysis::ReteStaticReport report = analysis::analyze_rete(program);
  report.program = label;

  if (opt.costs) {
    std::cout << label << ": static match costs (analyzer vs condition-count heuristic); "
              << "alpha sharing " << report.alpha_sharing() << "x, join sharing "
              << report.join_sharing() << "x\n";
    for (const auto& p : report.productions) {
      std::cout << "  " << p.name << ": cost=" << p.match_cost
                << " heuristic=" << p.heuristic_cost << " beta_degree=" << p.beta_degree
                << " beta_bound=" << p.beta_bound << '\n';
    }
  }

  if (opt.rete_report) {
    const std::string text = report.to_json().dump(2);
    if (opt.out_dir.empty()) {
      std::cout << text << '\n';
    } else {
      std::error_code ec;
      std::filesystem::create_directories(opt.out_dir, ec);
      std::string fname = label;
      for (auto& c : fname) {
        if (c == '/' || c == '\\' || c == '#' || c == ' ') c = '_';
      }
      const std::string path = opt.out_dir + "/" + fname + ".rete.json";
      std::ofstream os(path, std::ios::binary);
      if (!os) {
        std::cerr << path << ": cannot write report\n";
        return false;
      }
      os << text << '\n';
      std::cout << label << ": rete report -> " << path << '\n';
    }
  }
  return true;
}

/// Parses and lints one OPS5 source; prints diagnostics; updates the tally.
/// Returns false on parse failure.
[[nodiscard]] bool lint_source(const std::string& label, const std::string& source,
                               const std::vector<std::string>& seeds,
                               const std::vector<std::string>& outputs, const Options& opt,
                               LintTally& tally) {
  ops5::Program program;
  try {
    program = ops5::parse_program(source);
  } catch (const ops5::ParseError& e) {
    std::cerr << label << ": parse error: " << e.what() << '\n';
    return false;
  }

  analysis::LintOptions options;
  if (!resolve_classes(program, label, seeds, "seed", options.seed_classes)) return false;
  if (!resolve_classes(program, label, outputs, "output", options.output_classes)) {
    return false;
  }

  auto diags = analysis::lint_program(program, options);

  // The value-domain abstract interpreter contributes its AN014-AN017
  // findings to the same stream, as the admission gate does (lint_program
  // itself stays single-production; the interpreter needs the
  // whole-rule-base fixpoint). Without declared seeds every class is Top and
  // the pass finds nothing.
  analysis::ValueDomainOptions vd;
  vd.seed_classes = options.seed_classes;
  vd.output_classes = options.output_classes;
  const analysis::ValueDomainReport report = analysis::analyze_value_domains(program, vd);
  diags.insert(diags.end(), report.diagnostics.begin(), report.diagnostics.end());

  for (const auto& d : diags) {
    std::cout << label << ": " << analysis::format_diagnostic(program, d) << '\n';
    if (d.severity == analysis::Severity::Error) {
      ++tally.errors;
    } else {
      ++tally.warnings;
    }
  }
  std::cout << label << ": " << program.productions().size() << " productions, "
            << diags.size() << " finding(s)\n";

  if (opt.rete_report || opt.costs) {
    if (!emit_rete_analysis(program, label, opt)) return false;
  }
  return true;
}

[[nodiscard]] bool lint_phases(const Options& opt, LintTally& tally) {
  bool ok = true;
  for (const spam::PhaseSpec& phase : spam::phase_specs()) {
    ok = lint_source(phase.name, phase.source(), phase.seeds, phase.outputs, opt, tally) && ok;
  }
  return ok;
}

/// Certifies the decompositions of one dataset; returns the number of
/// reported conflicts. With --rete-report / --costs, also runs the static
/// analyzer over each decomposition's phase program (labelled
/// "<dataset>-<phase>", e.g. "sf-lcc-L3") — the per-dataset artifacts CI
/// uploads.
[[nodiscard]] std::size_t check_dataset(const std::string& name, int level,
                                        const Options& opt, bool& report_ok) {
  const spam::DatasetConfig config = spam::dataset_by_name(
      name == "sf" ? "SF" : name == "dc" ? "DC" : name == "moff" ? "MOFF" : name);
  const spam::Scene scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);

  std::size_t conflicts = 0;
  const auto certify = [&](const std::string& label, const spam::Decomposition& d) {
    const analysis::InterferenceReport report = analysis::check_interference(d.spec);
    std::cout << config.name << ' ' << label << ": " << report.summary(*d.spec.program)
              << '\n';
    conflicts += report.conflicts.size();
    if (opt.rete_report || opt.costs) {
      std::string tag = name + "-" + label;
      for (auto& c : tag) {
        if (c == ' ') c = '-';
      }
      report_ok = emit_rete_analysis(*d.spec.program, tag, opt) && report_ok;
    }
  };

  certify("rtf", spam::rtf_decomposition(scene, 3));
  const std::vector<int> levels =
      level > 0 ? std::vector<int>{level} : std::vector<int>{4, 3, 2};
  for (const int lv : levels) {
    certify("lcc L" + std::to_string(lv), spam::lcc_decomposition(lv, scene, best));
  }
  return conflicts;
}

// ---------------------------------------------------------------------------
// --gate: the static admission pipeline, offline
// ---------------------------------------------------------------------------

/// One side of the gate: `@rtf|@lcc|@fa|@model` loads a built-in phase base
/// (with its canonical seed/output classes unless the CLI overrides them), a
/// plain argument is read as an OPS5 source file.
[[nodiscard]] bool load_gate_side(const std::string& ref, const Options& opt,
                                  analysis::PackInput& out) {
  std::string source;
  if (!ref.empty() && ref[0] == '@') {
    const std::string phase = ref.substr(1);
    if (const spam::PhaseSpec* p = spam::phase_spec(phase)) {
      source = p->source();
      out.label = phase;
      if (opt.seeds.empty()) out.seed_classes = p->seeds;
      if (opt.outputs.empty()) out.output_classes = p->outputs;
    }
    if (source.empty()) {
      std::cerr << ref << ": unknown built-in phase (try @rtf/@lcc/@fa/@model)\n";
      return false;
    }
  } else {
    const auto text = read_file(ref);
    if (!text) {
      std::cerr << ref << ": cannot read file\n";
      return false;
    }
    source = *text;
    out.label = ref;
  }
  if (!opt.seeds.empty()) out.seed_classes = opt.seeds;
  if (!opt.outputs.empty()) out.output_classes = opt.outputs;
  try {
    out.program = std::make_shared<const ops5::Program>(ops5::parse_program(source));
  } catch (const ops5::ParseError& e) {
    std::cerr << ref << ": parse error: " << e.what() << '\n';
    return false;
  }
  // A pack with its own `(pack name version)` metadata names itself.
  if (!out.program->pack_name().empty()) {
    out.label = out.program->pack_name();
    if (!out.program->pack_version().empty()) out.label += "@" + out.program->pack_version();
  }
  return true;
}

/// Runs the admission pipeline on --gate OLD NEW and prints the verdict.
/// Returns the process exit code.
[[nodiscard]] int run_gate(const Options& opt) {
  analysis::PackInput live, candidate;
  if (!load_gate_side(opt.gate_old, opt, live)) return 2;
  if (!load_gate_side(opt.gate_new, opt, candidate)) return 2;

  // The interference recheck needs the certificate in force for the live
  // pack; the dataset decompositions are the certificates this repo ships.
  // The spec must describe the live program itself, so it replaces the
  // parsed @lcc side wholesale (same source, plus the task/fact model).
  std::optional<spam::Scene> scene;
  std::optional<spam::Decomposition> decomposition;
  if (!opt.gate_dataset.empty()) {
    if (opt.gate_old != "@lcc") {
      std::cerr << "--gate-dataset certifies the built-in LCC base; use `--gate @lcc NEW`\n";
      return 2;
    }
    const std::string& ds = opt.gate_dataset;
    try {
      const spam::DatasetConfig config = spam::dataset_by_name(
          ds == "sf" ? "SF" : ds == "dc" ? "DC" : ds == "moff" ? "MOFF" : ds);
      scene = spam::generate_scene(config);
      const auto best = spam::best_fragments(spam::run_rtf(*scene, 3).fragments);
      const int level = opt.level > 0 ? opt.level : 3;
      decomposition = spam::lcc_decomposition(level, *scene, best);
      live.program = decomposition->spec.program;
      live.spec = &decomposition->spec;
      live.label = ds + "-lcc-L" + std::to_string(level);
    } catch (const std::exception& e) {
      std::cerr << "--gate-dataset " << ds << ": " << e.what() << '\n';
      return 2;
    }
  }

  const analysis::AdmissionVerdict verdict =
      analysis::AnalysisPipeline(opt.strict).admit(&live, candidate);

  for (const auto& section : verdict.sections) {
    std::cout << section.analyzer << ": "
              << analysis::admission_decision_name(section.decision) << " ("
              << section.errors << " error(s), " << section.warnings << " warning(s))\n";
    for (const auto& f : section.findings) {
      std::cout << "  " << f.code << ' ' << f.severity;
      if (!f.production.empty()) std::cout << ' ' << f.production;
      std::cout << ": " << f.message << '\n';
    }
  }
  std::cout << "verdict: " << analysis::admission_decision_name(verdict.decision) << " ("
            << verdict.live << " -> " << verdict.candidate << ")\n";

  if (!opt.verdict_out.empty()) {
    std::ofstream os(opt.verdict_out, std::ios::binary);
    if (!os) {
      std::cerr << opt.verdict_out << ": cannot write verdict\n";
      return 2;
    }
    os << verdict.to_json().dump(2) << '\n';
    std::cout << "verdict json -> " << opt.verdict_out << '\n';
  }
  return verdict.accepted() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_args(argc, argv);
  if (!opt) {
    usage(std::cerr);
    return 2;
  }

  if (opt->list_rules) {
    for (std::uint16_t i = 1; i <= analysis::kCodeCount; ++i) {
      const auto code = static_cast<analysis::Code>(i);
      std::cout << analysis::code_name(code) << ' '
                << analysis::severity_name(analysis::default_severity(code)) << "  "
                << analysis::code_description(code) << '\n';
    }
    return 0;
  }

  if (!opt->dump_phase.empty()) {
    if (const spam::PhaseSpec* p = spam::phase_spec(opt->dump_phase)) {
      std::cout << p->source();
      return 0;
    }
    std::cerr << opt->dump_phase << ": unknown built-in phase\n";
    return 2;
  }

  if (!opt->gate_new.empty()) return run_gate(*opt);

  LintTally tally;
  bool parse_ok = true;

  if (opt->phases) parse_ok = lint_phases(*opt, tally) && parse_ok;

  for (const auto& path : opt->files) {
    const auto source = read_file(path);
    if (!source) {
      std::cerr << path << ": cannot read file\n";
      parse_ok = false;
      continue;
    }
    parse_ok = lint_source(path, *source, opt->seeds, opt->outputs, *opt, tally) && parse_ok;
  }

  for (const auto& path : opt->cpp_files) {
    const auto source = read_file(path);
    if (!source) {
      std::cerr << path << ": cannot read file\n";
      parse_ok = false;
      continue;
    }
    const auto programs = embedded_programs(*source);
    if (programs.empty()) {
      std::cerr << path << ": no embedded OPS5 programs found\n";
      parse_ok = false;
      continue;
    }
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const std::string label = path + "#" + std::to_string(i);
      parse_ok =
          lint_source(label, programs[i], opt->seeds, opt->outputs, *opt, tally) && parse_ok;
    }
  }

  std::size_t conflicts = 0;
  for (const auto& dataset : opt->interference) {
    try {
      conflicts += check_dataset(dataset, opt->level, *opt, parse_ok);
    } catch (const std::exception& e) {
      std::cerr << "--interference " << dataset << ": " << e.what() << '\n';
      return 2;
    }
  }

  if (!parse_ok) return 2;
  if (tally.errors > 0 || conflicts > 0) return 1;
  if (opt->strict && tally.warnings > 0) return 1;
  return 0;
}
