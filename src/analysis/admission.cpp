#include "analysis/admission.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

#include "analysis/footprint.hpp"
#include "analysis/lint.hpp"
#include "analysis/value_domain.hpp"

namespace psmsys::analysis {

using ops5::ClassIndex;
using ops5::Production;
using ops5::Program;
using ops5::SlotIndex;
using ops5::Symbol;
using ops5::Value;

namespace {

/// AN010: a cost ratio past kCostWarnRatio warns, past kCostRejectRatio it is
/// an error; a beta bound that grows past kBetaRejectRatio is an error.
constexpr double kCostWarnRatio = 2.0;
constexpr double kCostRejectRatio = 8.0;
constexpr double kBetaRejectRatio = 8.0;
/// Findings kept per section; the counts stay exact.
constexpr std::size_t kMaxFindings = 64;

[[nodiscard]] std::string class_name(const Program& program, ClassIndex cls) {
  return program.symbols().name(program.wme_class(cls).name());
}

[[nodiscard]] std::string attr_name(const Program& program, ClassIndex cls,
                                    SlotIndex slot) {
  const auto attrs = program.wme_class(cls).attributes();
  if (slot >= attrs.size()) return "<slot" + std::to_string(slot) + ">";
  return program.symbols().name(attrs[slot]);
}

[[nodiscard]] std::string label_of(const PackInput& pack) {
  if (!pack.label.empty()) return pack.label;
  if (pack.program != nullptr && !pack.program->pack_name().empty()) {
    std::string s = pack.program->pack_name();
    if (!pack.program->pack_version().empty()) {
      s += '@';
      s += pack.program->pack_version();
    }
    return s;
  }
  return "pack";
}

[[nodiscard]] double round6(double v) {
  if (v == 0.0 || !std::isfinite(v)) return 0.0;
  const double mag = std::pow(10.0, 5 - std::floor(std::log10(std::fabs(v))));
  return std::round(v * mag) / mag;
}

[[nodiscard]] std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// Resolve class names to indices, silently skipping names the program lacks
/// (removed classes surface through AN013, not a broken lint config).
[[nodiscard]] std::optional<std::vector<ClassIndex>> resolve_classes(
    const Program& program, const std::optional<std::vector<std::string>>& names) {
  if (!names.has_value()) return std::nullopt;
  std::vector<ClassIndex> out;
  for (const std::string& n : *names) {
    if (const auto sym = program.symbols().find(n)) {
      if (const auto cls = program.class_index(*sym)) out.push_back(*cls);
    }
  }
  return out;
}

[[nodiscard]] AdmissionDecision section_decision(std::size_t errors,
                                                 std::size_t warnings,
                                                 bool strict) {
  if (errors > 0) return AdmissionDecision::Reject;
  if (warnings > 0) {
    return strict ? AdmissionDecision::Reject : AdmissionDecision::Warn;
  }
  return AdmissionDecision::Pass;
}

/// Exact error and warning counts, then the findings cap. The decision is
/// made in AnalysisPipeline::admit, which knows `strict`.
void finalize_section(VerdictSection& s) {
  s.errors = 0;
  s.warnings = 0;
  for (const auto& f : s.findings) {
    if (f.severity == "error") {
      ++s.errors;
    } else if (f.severity == "warning") {
      ++s.warnings;
    }
  }
  if (s.findings.size() > kMaxFindings) {
    s.findings.resize(kMaxFindings);
    s.details.emplace_back("findings_truncated", obs::json::Value(true));
  }
}

void add_finding(VerdictSection& s, Code code, Severity severity,
                 std::string production, std::string message) {
  VerdictFinding f;
  f.code = code_name(code);
  f.severity = std::string(severity_name(severity));
  f.production = std::move(production);
  f.message = std::move(message);
  s.findings.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Section: lint
// ---------------------------------------------------------------------------

[[nodiscard]] VerdictSection lint_section(const PackInput& pack) {
  VerdictSection s;
  s.analyzer = "lint";
  LintOptions lint;
  lint.seed_classes = resolve_classes(*pack.program, pack.seed_classes);
  lint.output_classes = resolve_classes(*pack.program, pack.output_classes);
  const std::vector<Diagnostic> diags = lint_program(*pack.program, lint);
  for (const Diagnostic& d : diags) {
    VerdictFinding f;
    f.code = code_name(d.code);
    f.severity = std::string(severity_name(d.severity));
    if (d.production != ops5::kNilSymbol) {
      f.production = pack.program->symbols().name(d.production);
    }
    f.message = d.message;
    s.findings.push_back(std::move(f));
  }
  s.details.emplace_back("productions",
                         obs::json::Value(pack.program->productions().size()));
  s.details.emplace_back("diagnostics", obs::json::Value(diags.size()));
  finalize_section(s);
  return s;
}

// ---------------------------------------------------------------------------
// Section: rete_static
// ---------------------------------------------------------------------------

[[nodiscard]] VerdictSection rete_section(const ReteStaticReport& report) {
  VerdictSection s;
  s.analyzer = "rete_static";
  double total_cost = 0.0;
  for (const auto& p : report.productions) total_cost += p.match_cost;
  s.details.emplace_back("productions", obs::json::Value(report.production_count));
  s.details.emplace_back("alpha_nodes", obs::json::Value(report.alpha_nodes));
  s.details.emplace_back("join_nodes", obs::json::Value(report.join_nodes));
  s.details.emplace_back("beta_memories", obs::json::Value(report.beta_memories));
  s.details.emplace_back("alpha_sharing",
                         obs::json::Value(round6(report.alpha_sharing())));
  s.details.emplace_back("join_sharing",
                         obs::json::Value(round6(report.join_sharing())));
  s.details.emplace_back("total_cost", obs::json::Value(round6(total_cost)));
  finalize_section(s);
  return s;
}

// ---------------------------------------------------------------------------
// Section: value_domains (abstract interpretation, AN014–AN017)
// ---------------------------------------------------------------------------

[[nodiscard]] VerdictSection value_domains_section(const PackInput& pack) {
  VerdictSection s;
  s.analyzer = "value_domains";
  ValueDomainOptions vd;
  vd.seed_classes = resolve_classes(*pack.program, pack.seed_classes);
  vd.output_classes = resolve_classes(*pack.program, pack.output_classes);
  const ValueDomainReport report = analyze_value_domains(*pack.program, vd);
  for (const Diagnostic& d : report.diagnostics) {
    VerdictFinding f;
    f.code = code_name(d.code);
    f.severity = std::string(severity_name(d.severity));
    if (d.production != ops5::kNilSymbol) {
      f.production = pack.program->symbols().name(d.production);
    }
    f.message = d.message;
    s.findings.push_back(std::move(f));
  }
  s.details.emplace_back("converged", obs::json::Value(report.converged));
  s.details.emplace_back("iterations", obs::json::Value(report.iterations));
  finalize_section(s);
  return s;
}

// ---------------------------------------------------------------------------
// Section: interference (certificate recheck over the candidate)
// ---------------------------------------------------------------------------

[[nodiscard]] std::string conflict_key(const Program& program, const Conflict& c) {
  std::string key(conflict_kind_name(c.kind));
  key += '|';
  key += class_name(program, c.cls);
  key += '|';
  key += c.production_a == ops5::kNilSymbol ? std::string("<inject>")
                                            : program.symbols().name(c.production_a);
  key += '|';
  key += c.production_b == ops5::kNilSymbol ? std::string("<inject>")
                                            : program.symbols().name(c.production_b);
  return key;
}

[[nodiscard]] VerdictSection interference_section(const PackInput& live,
                                                  const PackInput& candidate) {
  VerdictSection s;
  s.analyzer = "interference";
  if (live.spec == nullptr || live.spec->empty()) {
    s.details.emplace_back("certificate", obs::json::Value("none"));
    finalize_section(s);
    return s;
  }

  const InterferenceReport live_report = check_interference(*live.spec);

  std::string rebind_error;
  const std::optional<DecompositionSpec> rebound =
      rebind_spec(*live.spec, candidate.program, &rebind_error);
  if (!rebound.has_value()) {
    add_finding(s, Code::CertificateInvalidation, Severity::Error, "",
                "independence certificate cannot be re-established over the "
                "candidate: " + rebind_error);
    s.details.emplace_back("certificate", obs::json::Value("unbindable"));
    s.details.emplace_back("live_conflicts",
                           obs::json::Value(live_report.conflicts.size()));
    finalize_section(s);
    return s;
  }

  const InterferenceReport cand_report = check_interference(*rebound);

  std::set<std::string> live_keys;
  for (const Conflict& c : live_report.conflicts) {
    live_keys.insert(conflict_key(*live.spec->program, c));
  }
  std::size_t new_conflicts = 0;
  for (const Conflict& c : cand_report.conflicts) {
    if (live_keys.contains(conflict_key(*candidate.program, c))) continue;
    ++new_conflicts;
    const Program& prog = *candidate.program;
    std::string who = c.production_a == ops5::kNilSymbol
                          ? std::string()
                          : prog.symbols().name(c.production_a);
    std::string msg(conflict_kind_name(c.kind));
    msg += " conflict on class '" + class_name(prog, c.cls) + "' between task " +
           std::to_string(c.task_a) + " and task " + std::to_string(c.task_b) +
           ": " + c.detail;
    add_finding(s, Code::NewInterferenceEdge, Severity::Error, std::move(who),
                std::move(msg));
  }
  if (live_report.independent() && !cand_report.independent()) {
    add_finding(s, Code::CertificateInvalidation, Severity::Error, "",
                "independence certificate invalidated: live pack was "
                "conflict-free, candidate has " +
                    std::to_string(cand_report.conflicts.size()) + " conflict(s)");
  }

  s.details.emplace_back("certificate", obs::json::Value("checked"));
  s.details.emplace_back("tasks", obs::json::Value(cand_report.tasks.size()));
  s.details.emplace_back("pairs_checked",
                         obs::json::Value(cand_report.pairs_checked));
  s.details.emplace_back("live_conflicts",
                         obs::json::Value(live_report.conflicts.size()));
  s.details.emplace_back("candidate_conflicts",
                         obs::json::Value(cand_report.conflicts.size()));
  s.details.emplace_back("new_conflicts", obs::json::Value(new_conflicts));
  finalize_section(s);
  return s;
}

// ---------------------------------------------------------------------------
// Section: semantic_diff
// ---------------------------------------------------------------------------

[[nodiscard]] VerdictSection diff_section(const PackInput& live,
                                          const PackInput& candidate,
                                          const ReteStaticReport& live_rete,
                                          const ReteStaticReport& cand_rete) {
  VerdictSection s;
  s.analyzer = "semantic_diff";
  const Program& lp = *live.program;
  const Program& cp = *candidate.program;

  // --- production diff by name + canonical fingerprint ---
  std::map<std::string, const Production*> live_prods;
  std::map<std::string, const Production*> cand_prods;
  for (const auto& p : lp.productions()) {
    live_prods.emplace(lp.symbols().name(p.name()), &p);
  }
  for (const auto& p : cp.productions()) {
    cand_prods.emplace(cp.symbols().name(p.name()), &p);
  }
  std::vector<std::string> added;
  std::vector<std::string> removed;
  std::vector<std::string> modified;
  for (const auto& [name, p] : cand_prods) {
    if (!live_prods.contains(name)) added.push_back(name);
  }
  for (const auto& [name, p] : live_prods) {
    const auto it = cand_prods.find(name);
    if (it == cand_prods.end()) {
      removed.push_back(name);
    } else if (production_fingerprint(lp, *p) !=
               production_fingerprint(cp, *it->second)) {
      modified.push_back(name);
    }
  }

  // --- AN013: output/result class schema changes ---
  std::set<std::string> output_names;
  if (live.output_classes.has_value()) {
    output_names.insert(live.output_classes->begin(), live.output_classes->end());
  }
  if (live.spec != nullptr && live.spec->program != nullptr) {
    for (const auto& rc : live.spec->result_classes) {
      output_names.insert(class_name(*live.spec->program, rc.cls));
    }
  }
  std::size_t classes_removed = 0;
  std::size_t classes_changed = 0;
  for (ClassIndex cls = 0; cls < lp.class_count(); ++cls) {
    const std::string cname = class_name(lp, cls);
    const Severity sev =
        output_names.contains(cname) ? Severity::Error : Severity::Warning;
    const auto sym = cp.symbols().find(cname);
    const auto ccls = sym.has_value() ? cp.class_index(*sym) : std::nullopt;
    if (!ccls.has_value()) {
      ++classes_removed;
      add_finding(s, Code::OutputSchemaChange, sev, "",
                  "class '" + cname + "' removed by the candidate");
      continue;
    }
    std::string live_layout;
    std::string cand_layout;
    for (const Symbol a : lp.wme_class(cls).attributes()) {
      if (!live_layout.empty()) live_layout += ' ';
      live_layout += lp.symbols().name(a);
    }
    for (const Symbol a : cp.wme_class(*ccls).attributes()) {
      if (!cand_layout.empty()) cand_layout += ' ';
      cand_layout += cp.symbols().name(a);
    }
    if (live_layout != cand_layout) {
      ++classes_changed;
      add_finding(s, Code::OutputSchemaChange, sev, "",
                  "class '" + cname + "' layout changed: [" + live_layout +
                      "] -> [" + cand_layout + "]");
    }
  }

  // --- AN010: per-production static cost / beta-growth regressions ---
  std::map<std::string, const ProductionReport*> live_costs;
  std::map<std::string, const ProductionReport*> cand_costs;
  for (const auto& p : live_rete.productions) live_costs.emplace(p.name, &p);
  for (const auto& p : cand_rete.productions) cand_costs.emplace(p.name, &p);

  for (const auto& [name, lrep] : live_costs) {
    const auto it = cand_costs.find(name);
    if (it == cand_costs.end()) continue;
    const ProductionReport& crep = *it->second;
    if (lrep->match_cost > 0.0) {
      const double ratio = crep.match_cost / lrep->match_cost;
      if (ratio > kCostWarnRatio) {
        const Severity sev = ratio > kCostRejectRatio ? Severity::Error : Severity::Warning;
        add_finding(s, Code::CostRegression, sev, name,
                    "static match cost regression: " + fmt2(lrep->match_cost) + " -> " +
                        fmt2(crep.match_cost) + " (x" + fmt2(ratio) + ")");
      }
    }
    if (lrep->beta_bound > 0.0 &&
        crep.beta_bound / lrep->beta_bound > kBetaRejectRatio) {
      add_finding(s, Code::CostRegression, Severity::Error, name,
                  "worst-case beta growth regression: bound " +
                      fmt2(lrep->beta_bound) + " -> " + fmt2(crep.beta_bound) +
                      " (degree " + std::to_string(lrep->beta_degree) + " -> " +
                      std::to_string(crep.beta_degree) + ")");
    } else if (crep.beta_degree > lrep->beta_degree) {
      add_finding(s, Code::CostRegression, Severity::Warning, name,
                  "beta growth degree increased: O(N^" +
                      std::to_string(lrep->beta_degree) + ") -> O(N^" +
                      std::to_string(crep.beta_degree) + ")");
    }
  }

  // --- dependency-edge churn (by name, cross-version comparable) ---
  const auto edge_keys = [](const Program& prog, const ReteStaticReport& rep) {
    std::set<std::string> keys;
    const auto prods = prog.productions();
    for (const auto& e : rep.edges) {
      std::string k = prog.symbols().name(prods[e.from].name());
      k += "->";
      k += prog.symbols().name(prods[e.to].name());
      k += ':';
      k += e.class_name;
      k += e.negated ? "!" : "";
      keys.insert(std::move(k));
    }
    return keys;
  };
  const std::set<std::string> live_edges = edge_keys(lp, live_rete);
  const std::set<std::string> cand_edges = edge_keys(cp, cand_rete);
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  for (const auto& k : cand_edges) {
    if (!live_edges.contains(k)) ++edges_added;
  }
  for (const auto& k : live_edges) {
    if (!cand_edges.contains(k)) ++edges_removed;
  }

  double live_total = 0.0;
  double cand_total = 0.0;
  for (const auto& p : live_rete.productions) live_total += p.match_cost;
  for (const auto& p : cand_rete.productions) cand_total += p.match_cost;

  const auto put_names = [&s](const char* key, const std::vector<std::string>& v) {
    obs::json::Array a;
    a.reserve(v.size());
    for (const auto& n : v) a.emplace_back(n);
    s.details.emplace_back(key, obs::json::Value(std::move(a)));
  };
  put_names("added", added);
  put_names("removed", removed);
  put_names("modified", modified);
  s.details.emplace_back("classes_removed", obs::json::Value(classes_removed));
  s.details.emplace_back("classes_changed", obs::json::Value(classes_changed));
  s.details.emplace_back("alpha_nodes_live", obs::json::Value(live_rete.alpha_nodes));
  s.details.emplace_back("alpha_nodes_candidate",
                         obs::json::Value(cand_rete.alpha_nodes));
  s.details.emplace_back("join_nodes_live", obs::json::Value(live_rete.join_nodes));
  s.details.emplace_back("join_nodes_candidate",
                         obs::json::Value(cand_rete.join_nodes));
  s.details.emplace_back("alpha_sharing_live",
                         obs::json::Value(round6(live_rete.alpha_sharing())));
  s.details.emplace_back("alpha_sharing_candidate",
                         obs::json::Value(round6(cand_rete.alpha_sharing())));
  s.details.emplace_back("join_sharing_live",
                         obs::json::Value(round6(live_rete.join_sharing())));
  s.details.emplace_back("join_sharing_candidate",
                         obs::json::Value(round6(cand_rete.join_sharing())));
  s.details.emplace_back("edges_added", obs::json::Value(edges_added));
  s.details.emplace_back("edges_removed", obs::json::Value(edges_removed));
  s.details.emplace_back("total_cost_live", obs::json::Value(round6(live_total)));
  s.details.emplace_back("total_cost_candidate",
                         obs::json::Value(round6(cand_total)));
  finalize_section(s);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

namespace {

void render_expr(const Program& program, const ops5::Expr& e, std::string& out);

void render_value(const Program& program, const Value& v, std::string& out) {
  out += v.to_string(program.symbols());
}

void render_expr(const Program& program, const ops5::Expr& e, std::string& out) {
  if (const auto* v = std::get_if<Value>(&e.node)) {
    render_value(program, *v, out);
  } else if (const auto* var = std::get_if<ops5::VarRef>(&e.node)) {
    out += '<';
    out += program.variable_name(var->var);
    out += '>';
  } else if (const auto* call = std::get_if<ops5::CallExpr>(&e.node)) {
    out += '(';
    out += program.symbols().name(call->function);
    for (const auto& a : call->args) {
      out += ' ';
      render_expr(program, a, out);
    }
    out += ')';
  }
}

void render_sets(const Program& program, ClassIndex cls,
                 const std::vector<std::pair<SlotIndex, ops5::Expr>>& sets,
                 std::string& out) {
  for (const auto& [slot, expr] : sets) {
    out += " ^";
    out += attr_name(program, cls, slot);
    out += '=';
    render_expr(program, expr, out);
  }
}

}  // namespace

std::string production_fingerprint(const Program& program,
                                   const Production& production) {
  std::string out;
  for (const auto& ce : production.lhs()) {
    if (ce.negated) out += '-';
    out += program.symbols().name(ce.class_name);
    out += '(';
    bool first = true;
    for (const auto& t : ce.tests) {
      if (!first) out += ' ';
      first = false;
      out += '^';
      out += attr_name(program, ce.cls, t.slot);
      out += predicate_name(t.pred);
      if (t.is_disjunction()) {
        out += "<<";
        for (const auto& v : t.disjunction) {
          out += ' ';
          render_value(program, v, out);
        }
        out += " >>";
      } else if (t.is_variable) {
        out += '<';
        out += program.variable_name(t.var);
        out += '>';
      } else {
        render_value(program, t.constant, out);
      }
    }
    out += ')';
  }
  out += "-->";
  for (const auto& action : production.rhs()) {
    if (const auto* mk = std::get_if<ops5::MakeAction>(&action)) {
      out += "(make ";
      out += class_name(program, mk->cls);
      render_sets(program, mk->cls, mk->sets, out);
      out += ')';
    } else if (const auto* mod = std::get_if<ops5::ModifyAction>(&action)) {
      out += "(modify ";
      out += std::to_string(mod->ce_index);
      if (const ops5::ConditionElement* ce = positive_ce(production, mod->ce_index)) {
        render_sets(program, ce->cls, mod->sets, out);
      }
      out += ')';
    } else if (const auto* rm = std::get_if<ops5::RemoveAction>(&action)) {
      out += "(remove ";
      out += std::to_string(rm->ce_index);
      out += ')';
    } else if (const auto* bind = std::get_if<ops5::BindAction>(&action)) {
      out += "(bind <";
      out += program.variable_name(bind->var);
      out += "> ";
      render_expr(program, bind->expr, out);
      out += ')';
    } else if (const auto* wr = std::get_if<ops5::WriteAction>(&action)) {
      out += "(write";
      for (const auto& e : wr->exprs) {
        out += ' ';
        render_expr(program, e, out);
      }
      out += ')';
    } else if (std::get_if<ops5::HaltAction>(&action) != nullptr) {
      out += "(halt)";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spec rebinding
// ---------------------------------------------------------------------------

namespace {

struct Rebinder {
  const Program& src;
  const Program& dst;
  std::string error;

  [[nodiscard]] std::optional<ClassIndex> map_class(ClassIndex cls) {
    const std::string name = class_name(src, cls);
    if (const auto sym = dst.symbols().find(name)) {
      if (const auto idx = dst.class_index(*sym)) return idx;
    }
    error = "class '" + name + "' does not exist in the candidate";
    return std::nullopt;
  }

  [[nodiscard]] std::optional<SlotIndex> map_slot(ClassIndex src_cls,
                                                  ClassIndex dst_cls,
                                                  SlotIndex slot) {
    const auto attrs = src.wme_class(src_cls).attributes();
    if (slot >= attrs.size()) {
      error = "slot " + std::to_string(slot) + " out of range for class '" +
              class_name(src, src_cls) + "'";
      return std::nullopt;
    }
    const std::string name = src.symbols().name(attrs[slot]);
    if (const auto sym = dst.symbols().find(name)) {
      const SlotIndex mapped = dst.wme_class(dst_cls).slot_of(*sym);
      if (mapped != ops5::kInvalidSlot) return mapped;
    }
    error = "attribute '^" + name + "' of class '" + class_name(src, src_cls) +
            "' does not exist in the candidate";
    return std::nullopt;
  }

  [[nodiscard]] std::optional<Value> map_value(const Value& v) {
    if (!v.is_symbol()) return v;
    const std::string name = src.symbols().name(v.symbol());
    if (const auto sym = dst.symbols().find(name)) return Value(*sym);
    error = "symbol '" + name + "' does not exist in the candidate";
    return std::nullopt;
  }

  [[nodiscard]] std::optional<AbstractVal> map_abstract(const AbstractVal& a) {
    if (!a.is_finite()) return a;
    std::vector<Value> values;
    values.reserve(a.values().size());
    for (const auto& v : a.values()) {
      const auto mapped = map_value(v);
      if (!mapped.has_value()) return std::nullopt;
      values.push_back(*mapped);
    }
    return AbstractVal::finite(std::move(values));
  }
};

}  // namespace

std::optional<DecompositionSpec> rebind_spec(
    const DecompositionSpec& spec, std::shared_ptr<const Program> target,
    std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (spec.program == nullptr || target == nullptr) {
    return fail("missing program");
  }
  Rebinder rb{*spec.program, *target, {}};

  DecompositionSpec out;
  out.program = std::move(target);
  out.tasks.reserve(spec.tasks.size());

  for (const ClassIndex cls : spec.base_classes) {
    const auto mapped = rb.map_class(cls);
    if (!mapped.has_value()) return fail(rb.error);
    out.base_classes.push_back(*mapped);
  }
  for (const ClassIndex cls : spec.scratch_classes) {
    const auto mapped = rb.map_class(cls);
    if (!mapped.has_value()) return fail(rb.error);
    out.scratch_classes.push_back(*mapped);
  }
  for (const ResultClassSpec& rc : spec.result_classes) {
    ResultClassSpec mapped_rc;
    const auto cls = rb.map_class(rc.cls);
    if (!cls.has_value()) return fail(rb.error);
    mapped_rc.cls = *cls;
    for (const SlotIndex slot : rc.key_slots) {
      const auto mapped = rb.map_slot(rc.cls, *cls, slot);
      if (!mapped.has_value()) return fail(rb.error);
      mapped_rc.key_slots.push_back(*mapped);
    }
    out.result_classes.push_back(std::move(mapped_rc));
  }
  for (const DataFact& fact : spec.facts) {
    DataFact mapped_fact;
    const auto cls = rb.map_class(fact.cls);
    if (!cls.has_value()) return fail(rb.error);
    mapped_fact.cls = *cls;
    const auto guard = rb.map_slot(fact.cls, *cls, fact.guard_slot);
    if (!guard.has_value()) return fail(rb.error);
    mapped_fact.guard_slot = *guard;
    const auto guard_value = rb.map_value(fact.guard_value);
    if (!guard_value.has_value()) return fail(rb.error);
    mapped_fact.guard_value = *guard_value;
    for (const auto& [slot, aval] : fact.implied) {
      const auto mapped_slot = rb.map_slot(fact.cls, *cls, slot);
      if (!mapped_slot.has_value()) return fail(rb.error);
      const auto mapped_aval = rb.map_abstract(aval);
      if (!mapped_aval.has_value()) return fail(rb.error);
      mapped_fact.implied.emplace_back(*mapped_slot, *mapped_aval);
    }
    out.facts.push_back(std::move(mapped_fact));
  }
  for (const TaskSpec& task : spec.tasks) {
    TaskSpec mapped_task;
    mapped_task.task_id = task.task_id;
    mapped_task.label = task.label;
    for (const TaskWmeSpec& wme : task.wmes) {
      TaskWmeSpec mapped_wme;
      const auto cls = rb.map_class(wme.cls);
      if (!cls.has_value()) return fail(rb.error);
      mapped_wme.cls = *cls;
      for (const auto& [slot, value] : wme.slots) {
        const auto mapped_slot = rb.map_slot(wme.cls, *cls, slot);
        if (!mapped_slot.has_value()) return fail(rb.error);
        const auto mapped_value = rb.map_value(value);
        if (!mapped_value.has_value()) return fail(rb.error);
        mapped_wme.slots.emplace_back(*mapped_slot, *mapped_value);
      }
      mapped_task.wmes.push_back(std::move(mapped_wme));
    }
    out.tasks.push_back(std::move(mapped_task));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Verdict
// ---------------------------------------------------------------------------

std::string_view admission_decision_name(AdmissionDecision d) noexcept {
  switch (d) {
    case AdmissionDecision::Pass: return "pass";
    case AdmissionDecision::Warn: return "warn";
    case AdmissionDecision::Reject: return "reject";
  }
  return "unknown";
}

std::size_t AdmissionVerdict::errors() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sections) n += s.errors;
  return n;
}

std::size_t AdmissionVerdict::warnings() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sections) n += s.warnings;
  return n;
}

obs::json::Value AdmissionVerdict::to_json() const {
  using obs::json::Array;
  using obs::json::Object;
  using obs::json::Value;

  Array sections_json;
  for (const auto& s : sections) {
    Array findings_json;
    for (const auto& f : s.findings) {
      findings_json.push_back(Value(Object{{"code", Value(f.code)},
                                           {"severity", Value(f.severity)},
                                           {"production", Value(f.production)},
                                           {"message", Value(f.message)}}));
    }
    sections_json.push_back(Value(
        Object{{"analyzer", Value(s.analyzer)},
               {"decision", Value(admission_decision_name(s.decision))},
               {"errors", Value(s.errors)},
               {"warnings", Value(s.warnings)},
               {"findings", Value(std::move(findings_json))},
               {"details", Value(s.details)}}));
  }
  return Value(Object{{"schema", Value(kSchema)},
                      {"live", Value(live)},
                      {"candidate", Value(candidate)},
                      {"decision", Value(admission_decision_name(decision))},
                      {"errors", Value(errors())},
                      {"warnings", Value(warnings())},
                      {"sections", Value(std::move(sections_json))}});
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

AdmissionVerdict AnalysisPipeline::admit(const PackInput* live,
                                         const PackInput& candidate) const {
  if (candidate.program == nullptr || !candidate.program->frozen()) {
    throw std::invalid_argument("admission requires a frozen candidate program");
  }
  if (live != nullptr && (live->program == nullptr || !live->program->frozen())) {
    throw std::invalid_argument("admission requires a frozen live program");
  }

  AdmissionVerdict verdict;
  verdict.candidate = label_of(candidate);
  if (live != nullptr) verdict.live = label_of(*live);

  verdict.sections.push_back(lint_section(candidate));
  const ReteStaticReport cand_rete = analyze_rete(*candidate.program);
  verdict.sections.push_back(rete_section(cand_rete));
  verdict.sections.push_back(value_domains_section(candidate));
  if (live != nullptr) {
    const ReteStaticReport live_rete = analyze_rete(*live->program);
    verdict.sections.push_back(interference_section(*live, candidate));
    verdict.sections.push_back(diff_section(*live, candidate, live_rete, cand_rete));
  }

  for (auto& s : verdict.sections) {
    s.decision = section_decision(s.errors, s.warnings, strict_);
    verdict.decision = std::max(verdict.decision, s.decision);
  }
  return verdict;
}

}  // namespace psmsys::analysis
