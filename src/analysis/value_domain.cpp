#include "analysis/value_domain.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "analysis/footprint.hpp"

namespace psmsys::analysis {

namespace {

using ops5::AttrTest;
using ops5::ClassIndex;
using ops5::ConditionElement;
using ops5::Predicate;
using ops5::Production;
using ops5::Program;
using ops5::SlotIndex;
using ops5::Symbol;
using ops5::Value;

[[nodiscard]] bool is_whole(double n) noexcept { return std::floor(n) == n; }

}  // namespace

// ---------------------------------------------------------------------------
// ValueDomain lattice
// ---------------------------------------------------------------------------

ValueDomain ValueDomain::top() {
  ValueDomain d;
  d.nil_ = true;
  d.sym_ = SymPart::Any;
  d.num_ = NumPart::Any;
  return d;
}

ValueDomain ValueDomain::of(const Value& v) {
  ValueDomain d;
  switch (v.kind()) {
    case Value::Kind::Nil:
      d.nil_ = true;
      break;
    case Value::Kind::Sym:
      d.sym_ = SymPart::Consts;
      d.sym_consts_ = {v.symbol()};
      break;
    case Value::Kind::Num:
      d.num_ = NumPart::Consts;
      d.num_consts_ = {v.number()};
      break;
  }
  return d;
}

bool ValueDomain::operator==(const ValueDomain& o) const noexcept {
  if (nil_ != o.nil_ || sym_ != o.sym_ || num_ != o.num_) return false;
  if (sym_ == SymPart::Consts && sym_consts_ != o.sym_consts_) return false;
  if (num_ == NumPart::Consts && num_consts_ != o.num_consts_) return false;
  if (num_ == NumPart::Range &&
      (range_.lo != o.range_.lo || range_.hi != o.range_.hi ||
       range_.integral != o.range_.integral)) {
    return false;
  }
  return true;
}

bool ValueDomain::contains(const Value& v) const {
  switch (v.kind()) {
    case Value::Kind::Nil:
      return nil_;
    case Value::Kind::Sym:
      if (sym_ == SymPart::Any) return true;
      if (sym_ == SymPart::Consts) {
        return std::binary_search(sym_consts_.begin(), sym_consts_.end(), v.symbol());
      }
      return false;
    case Value::Kind::Num: {
      const double n = v.number();
      switch (num_) {
        case NumPart::None: return false;
        case NumPart::Any: return true;
        case NumPart::Consts:
          return std::binary_search(num_consts_.begin(), num_consts_.end(), n);
        case NumPart::Range:
          return range_.lo <= n && n <= range_.hi && (!range_.integral || is_whole(n));
      }
      return false;
    }
  }
  return false;
}

double ValueDomain::num_min() const {
  return num_ == NumPart::Consts ? num_consts_.front() : range_.lo;
}

double ValueDomain::num_max() const {
  return num_ == NumPart::Consts ? num_consts_.back() : range_.hi;
}

bool ValueDomain::has_kind_of(const Value& constant) const noexcept {
  switch (constant.kind()) {
    case Value::Kind::Nil: return nil_;
    case Value::Kind::Sym: return sym_ != SymPart::None;
    case Value::Kind::Num: return num_ != NumPart::None;
  }
  return false;
}

bool ValueDomain::join_with(const ValueDomain& other, std::size_t max_constants) {
  bool changed = false;
  if (other.nil_ && !nil_) {
    nil_ = true;
    changed = true;
  }
  // Symbolic part.
  if (other.sym_ != SymPart::None && sym_ != SymPart::Any) {
    if (other.sym_ == SymPart::Any) {
      sym_ = SymPart::Any;
      sym_consts_.clear();
      changed = true;
    } else {
      std::vector<Symbol> merged;
      merged.reserve(sym_consts_.size() + other.sym_consts_.size());
      std::set_union(sym_consts_.begin(), sym_consts_.end(), other.sym_consts_.begin(),
                     other.sym_consts_.end(), std::back_inserter(merged));
      if (merged.size() > max_constants) {
        sym_ = SymPart::Any;
        sym_consts_.clear();
        changed = true;
      } else if (merged != sym_consts_) {
        sym_ = SymPart::Consts;
        sym_consts_ = std::move(merged);
        changed = true;
      } else if (sym_ == SymPart::None && !merged.empty()) {
        sym_ = SymPart::Consts;
        changed = true;
      }
    }
  }
  // Numeric part.
  if (other.num_ != NumPart::None && num_ != NumPart::Any) {
    if (other.num_ == NumPart::Any) {
      num_ = NumPart::Any;
      num_consts_.clear();
      changed = true;
    } else if (num_ == NumPart::None) {
      num_ = other.num_;
      num_consts_ = other.num_consts_;
      range_ = other.range_;
      changed = true;
    } else if (num_ == NumPart::Consts && other.num_ == NumPart::Consts) {
      std::vector<double> merged;
      merged.reserve(num_consts_.size() + other.num_consts_.size());
      std::set_union(num_consts_.begin(), num_consts_.end(), other.num_consts_.begin(),
                     other.num_consts_.end(), std::back_inserter(merged));
      if (merged.size() > max_constants) {
        bool integral = true;
        for (double n : merged) integral = integral && is_whole(n);
        range_ = {merged.front(), merged.back(), integral};
        num_ = NumPart::Range;
        num_consts_.clear();
        changed = true;
      } else if (merged != num_consts_) {
        num_consts_ = std::move(merged);
        changed = true;
      }
    } else {
      // At least one side is a Range: take the interval hull.
      bool integral = true;
      double lo = 0.0;
      double hi = 0.0;
      auto fold = [&](const ValueDomain& d, bool first) {
        double dlo = d.num_min();
        double dhi = d.num_max();
        bool dint = true;
        if (d.num_ == NumPart::Consts) {
          for (double n : d.num_consts_) dint = dint && is_whole(n);
        } else {
          dint = d.range_.integral;
        }
        if (first) {
          lo = dlo;
          hi = dhi;
          integral = dint;
        } else {
          lo = std::min(lo, dlo);
          hi = std::max(hi, dhi);
          integral = integral && dint;
        }
      };
      fold(*this, true);
      fold(other, false);
      const Interval merged{lo, hi, integral};
      if (num_ != NumPart::Range || range_.lo != merged.lo || range_.hi != merged.hi ||
          range_.integral != merged.integral) {
        num_ = NumPart::Range;
        num_consts_.clear();
        range_ = merged;
        changed = true;
      }
    }
  }
  return changed;
}

bool ValueDomain::may_satisfy(Predicate pred, const Value& constant) const {
  if (is_bottom()) return false;
  switch (pred) {
    case Predicate::Eq:
      return contains(constant);
    case Predicate::Ne: {
      // False only when the domain is exactly the singleton {constant}.
      switch (constant.kind()) {
        case Value::Kind::Nil:
          return sym_ != SymPart::None || num_ != NumPart::None || !nil_;
        case Value::Kind::Sym:
          return nil_ || num_ != NumPart::None || sym_ == SymPart::Any ||
                 sym_consts_.size() != 1 || sym_consts_.front() != constant.symbol();
        case Value::Kind::Num:
          return nil_ || sym_ != SymPart::None || num_ == NumPart::Any ||
                 num_ == NumPart::Range ||
                 num_consts_.size() != 1 || num_consts_.front() != constant.number();
      }
      return true;
    }
    case Predicate::Lt:
    case Predicate::Le:
    case Predicate::Gt:
    case Predicate::Ge: {
      // Ordering only relates numbers: a non-number constant fails for every
      // value, and only numeric domain members can pass.
      if (!constant.is_number() || num_ == NumPart::None) return false;
      if (num_ == NumPart::Any) return true;
      if (num_ == NumPart::Consts) {
        for (double n : num_consts_) {
          if (ops5::apply_predicate(pred, Value(n), constant)) return true;
        }
        return false;
      }
      const double c = constant.number();
      switch (pred) {
        case Predicate::Lt: return range_.lo < c;
        case Predicate::Le: return range_.lo <= c;
        case Predicate::Gt: return range_.hi > c;
        case Predicate::Ge: return range_.hi >= c;
        default: return true;
      }
    }
  }
  return true;
}

bool ValueDomain::may_satisfy_disjunction(std::span<const Value> alts) const {
  for (const auto& alt : alts) {
    if (contains(alt)) return true;
  }
  return false;
}

ValueDomain ValueDomain::narrowed(Predicate pred, const Value& constant) const {
  switch (pred) {
    case Predicate::Eq:
      return contains(constant) ? of(constant) : bottom();
    case Predicate::Ne: {
      ValueDomain d = *this;
      switch (constant.kind()) {
        case Value::Kind::Nil:
          d.nil_ = false;
          break;
        case Value::Kind::Sym:
          if (d.sym_ == SymPart::Consts) {
            std::erase(d.sym_consts_, constant.symbol());
            if (d.sym_consts_.empty()) d.sym_ = SymPart::None;
          }
          break;
        case Value::Kind::Num:
          if (d.num_ == NumPart::Consts) {
            std::erase(d.num_consts_, constant.number());
            if (d.num_consts_.empty()) d.num_ = NumPart::None;
          }
          break;
      }
      return d;
    }
    case Predicate::Lt:
    case Predicate::Le:
    case Predicate::Gt:
    case Predicate::Ge: {
      if (!constant.is_number()) return bottom();
      ValueDomain d;  // ordering keeps numbers only
      d.num_ = num_;
      const double c = constant.number();
      switch (num_) {
        case NumPart::None:
        case NumPart::Any:
          break;
        case NumPart::Consts:
          for (double n : num_consts_) {
            if (ops5::apply_predicate(pred, Value(n), constant)) d.num_consts_.push_back(n);
          }
          if (d.num_consts_.empty()) d.num_ = NumPart::None;
          break;
        case NumPart::Range: {
          // Clip to a closed over-approximation of the strict bounds.
          Interval r = range_;
          if (pred == Predicate::Lt || pred == Predicate::Le) r.hi = std::min(r.hi, c);
          if (pred == Predicate::Gt || pred == Predicate::Ge) r.lo = std::max(r.lo, c);
          if (r.lo > r.hi) {
            d.num_ = NumPart::None;
          } else {
            d.range_ = r;
          }
          break;
        }
      }
      return d;
    }
  }
  return *this;
}

bool ValueDomain::intersects(const ValueDomain& other) const {
  if (nil_ && other.nil_) return true;
  // Symbols.
  if (sym_ != SymPart::None && other.sym_ != SymPart::None) {
    if (sym_ == SymPart::Any || other.sym_ == SymPart::Any) return true;
    std::vector<Symbol> common;
    std::set_intersection(sym_consts_.begin(), sym_consts_.end(), other.sym_consts_.begin(),
                          other.sym_consts_.end(), std::back_inserter(common));
    if (!common.empty()) return true;
  }
  // Numbers.
  if (num_ != NumPart::None && other.num_ != NumPart::None) {
    if (num_ == NumPart::Any || other.num_ == NumPart::Any) return true;
    if (num_ == NumPart::Consts && other.num_ == NumPart::Consts) {
      std::vector<double> common;
      std::set_intersection(num_consts_.begin(), num_consts_.end(), other.num_consts_.begin(),
                            other.num_consts_.end(), std::back_inserter(common));
      if (!common.empty()) return true;
    } else if (num_ == NumPart::Consts || other.num_ == NumPart::Consts) {
      const ValueDomain& consts = num_ == NumPart::Consts ? *this : other;
      const ValueDomain& ranged = num_ == NumPart::Consts ? other : *this;
      for (double n : consts.num_consts_) {
        if (ranged.range_.lo <= n && n <= ranged.range_.hi &&
            (!ranged.range_.integral || is_whole(n))) {
          return true;
        }
      }
    } else {
      // Two ranges: bound overlap (integrality refinement would only add
      // precision; skipping it stays over-approximate, hence sound).
      if (std::max(range_.lo, other.range_.lo) <= std::min(range_.hi, other.range_.hi)) {
        return true;
      }
    }
  }
  return false;
}

std::string ValueDomain::render(const ops5::SymbolTable& symbols) const {
  if (is_bottom()) return "bottom";
  if (is_top()) return "top";
  auto fmt_num = [](double n) {
    if (is_whole(n) && std::abs(n) < 1e15) {
      return std::to_string(static_cast<long long>(n));
    }
    return std::to_string(n);
  };
  std::string out;
  auto piece = [&](const std::string& s) {
    if (!out.empty()) out += " | ";
    out += s;
  };
  if (nil_) piece("nil");
  if (sym_ == SymPart::Any) {
    piece("sym*");
  } else if (sym_ == SymPart::Consts) {
    std::string s = "sym{";
    for (std::size_t i = 0; i < sym_consts_.size(); ++i) {
      if (i != 0) s += ", ";
      s += symbols.name(sym_consts_[i]);
    }
    s += '}';
    piece(s);
  }
  if (num_ == NumPart::Any) {
    piece("num*");
  } else if (num_ == NumPart::Consts) {
    std::string s = "num{";
    for (std::size_t i = 0; i < num_consts_.size(); ++i) {
      if (i != 0) s += ", ";
      s += fmt_num(num_consts_[i]);
    }
    s += '}';
    piece(s);
  } else if (num_ == NumPart::Range) {
    std::string s = range_.integral ? "int[" : "num[";
    s += fmt_num(range_.lo);
    s += "..";
    s += fmt_num(range_.hi);
    s += ']';
    piece(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Abstract interpretation over the rule base
// ---------------------------------------------------------------------------

namespace {

/// Const-set size cap before a domain overflows to its interval hull / Any.
constexpr std::size_t kMaxConstants = 8;
/// Fixpoint round cap: a backstop only, since the lattice is finite.
constexpr std::size_t kMaxIterations = 64;

struct State {
  std::vector<std::vector<ValueDomain>> domains;  // [class][slot]
  std::vector<std::uint8_t> reachable;            // per class
};

[[nodiscard]] State initial_state(const Program& program, const ValueDomainOptions& options) {
  State st;
  const std::size_t n = program.class_count();
  st.domains.resize(n);
  st.reachable.assign(n, 0);
  for (ClassIndex c = 0; c < n; ++c) {
    st.domains[c].assign(program.wme_class(c).arity(), ValueDomain::bottom());
  }
  auto seed = [&](ClassIndex c) {
    st.reachable[c] = 1;
    for (auto& d : st.domains[c]) d = ValueDomain::top();
  };
  if (options.seed_classes) {
    for (ClassIndex c : *options.seed_classes) {
      if (c < n) seed(c);
    }
  } else {
    // No seed declaration: anything may arrive from outside any class.
    for (ClassIndex c = 0; c < n; ++c) seed(c);
  }
  return st;
}

/// Slot domain at a CE, narrowed by the CE's own constant tests on that slot
/// (e.g. for `(c ^v > 3 ^v <x>)` the binding of <x> excludes values <= 3).
[[nodiscard]] ValueDomain site_domain(const State& st, const ConditionElement& ce,
                                      SlotIndex slot) {
  ValueDomain d = st.domains[ce.cls][slot];
  for (const auto& t : ce.tests) {
    if (t.slot != slot || t.is_variable || t.is_disjunction()) continue;
    d = d.narrowed(t.pred, t.constant);
  }
  return d;
}

/// One equality occurrence of a variable in a positive CE.
struct EqSite {
  const ConditionElement* ce = nullptr;
  SlotIndex slot = 0;
  ValueDomain domain;
};

/// All Eq occurrences of each variable across the positive CEs, in LHS order.
[[nodiscard]] std::vector<std::pair<ops5::VariableId, std::vector<EqSite>>> eq_sites(
    const Production& p, const State& st) {
  std::vector<std::pair<ops5::VariableId, std::vector<EqSite>>> out;
  for (const auto& ce : p.lhs()) {
    if (ce.negated) continue;
    for (const auto& t : ce.tests) {
      if (!t.is_variable || t.pred != Predicate::Eq) continue;
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == t.var; });
      if (it == out.end()) {
        out.push_back({t.var, {}});
        it = std::prev(out.end());
      }
      it->second.push_back({&ce, t.slot, site_domain(st, ce, t.slot)});
    }
  }
  return out;
}

[[nodiscard]] std::string test_text(const Program& program, const ConditionElement& ce,
                                    const AttrTest& t) {
  const auto& wc = program.wme_class(ce.cls);
  std::string out = "^";
  out += program.symbols().name(wc.attributes()[t.slot]);
  out += ' ';
  if (t.is_disjunction()) {
    out += "<< ";
    for (const auto& alt : t.disjunction) {
      out += alt.to_string(program.symbols());
      out += ' ';
    }
    out += ">>";
  } else {
    if (t.pred != Predicate::Eq) {
      out += ops5::predicate_name(t.pred);
      out += ' ';
    }
    out += t.constant.to_string(program.symbols());
  }
  return out;
}

[[nodiscard]] std::string slot_text(const Program& program, ClassIndex cls, SlotIndex slot) {
  const auto& wc = program.wme_class(cls);
  std::string out = program.symbols().name(wc.name());
  out += '.';
  out += program.symbols().name(wc.attributes()[slot]);
  return out;
}

/// Can the production provably never fire? True when a positive CE's class is
/// unreachable, a positive CE's constant test is dead, or an equality join's
/// site domains share no value.
[[nodiscard]] bool production_infeasible(const Production& p, const State& st) {
  for (const auto& ce : p.lhs()) {
    if (ce.negated) continue;
    if (!st.reachable[ce.cls]) return true;
    for (const auto& t : ce.tests) {
      if (t.is_variable) continue;
      const ValueDomain& d = st.domains[ce.cls][t.slot];
      const bool dead = t.is_disjunction() ? !d.may_satisfy_disjunction(t.disjunction)
                                           : !d.may_satisfy(t.pred, t.constant);
      if (dead) return true;
    }
  }
  for (const auto& [var, sites] : eq_sites(p, st)) {
    for (std::size_t i = 0; i + 1 < sites.size(); ++i) {
      for (std::size_t j = i + 1; j < sites.size(); ++j) {
        if (!sites[i].domain.intersects(sites[j].domain)) return true;
      }
    }
  }
  return false;
}

/// Binding environment: per-variable domain from its first Eq occurrence in a
/// positive CE (AN006 guarantees first use is an equality for valid programs).
struct Env {
  std::vector<ValueDomain> domains;
  std::vector<std::uint8_t> bound;
};

[[nodiscard]] Env binding_env(const Program& program, const Production& p, const State& st) {
  Env env;
  env.domains.assign(program.variable_count(), ValueDomain());
  env.bound.assign(program.variable_count(), 0);
  for (const auto& ce : p.lhs()) {
    if (ce.negated) continue;
    for (const auto& t : ce.tests) {
      if (!t.is_variable || t.pred != Predicate::Eq) continue;
      if (t.var < env.bound.size() && !env.bound[t.var]) {
        env.domains[t.var] = site_domain(st, ce, t.slot);
        env.bound[t.var] = 1;
      }
    }
  }
  return env;
}

[[nodiscard]] ValueDomain eval_expr(const ops5::Expr& expr, const Env& env) {
  if (const auto* v = std::get_if<Value>(&expr.node)) {
    return ValueDomain::of(*v);
  }
  if (const auto* r = std::get_if<ops5::VarRef>(&expr.node)) {
    if (r->var < env.bound.size() && env.bound[r->var]) return env.domains[r->var];
    return ValueDomain::top();  // unbound is AN001's problem; stay sound
  }
  return ValueDomain::top();  // external call (compute/geometry): any value
}

/// One monotone transfer round: apply every fireable production's writes.
/// Returns true when any domain or reachability bit grew.
bool transfer_round(const Program& program, State& st) {
  bool changed = false;
  for (const auto& p : program.productions()) {
    if (production_infeasible(p, st)) continue;
    Env env = binding_env(program, p, st);
    for (const auto& action : p.rhs()) {
      if (const auto* mk = std::get_if<ops5::MakeAction>(&action)) {
        if (mk->cls >= st.reachable.size()) continue;
        if (!st.reachable[mk->cls]) {
          st.reachable[mk->cls] = 1;
          changed = true;
        }
        auto& slots = st.domains[mk->cls];
        std::vector<std::uint8_t> written(slots.size(), 0);
        for (const auto& [slot, expr] : mk->sets) {
          if (slot >= slots.size()) continue;
          changed |= slots[slot].join_with(eval_expr(expr, env), kMaxConstants);
          written[slot] = 1;
        }
        const ValueDomain nil_only = ValueDomain::of(Value());
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (!written[s]) changed |= slots[s].join_with(nil_only, kMaxConstants);
        }
      } else if (const auto* mod = std::get_if<ops5::ModifyAction>(&action)) {
        const ConditionElement* ce = positive_ce(p, mod->ce_index);
        if (ce == nullptr) continue;  // AN005 territory
        auto& slots = st.domains[ce->cls];
        for (const auto& [slot, expr] : mod->sets) {
          if (slot >= slots.size()) continue;
          changed |= slots[slot].join_with(eval_expr(expr, env), kMaxConstants);
        }
      } else if (const auto* bind = std::get_if<ops5::BindAction>(&action)) {
        if (bind->var < env.bound.size()) {
          env.domains[bind->var] = eval_expr(bind->expr, env);
          env.bound[bind->var] = 1;
        }
      }
      // remove/write/halt write no slot values.
    }
  }
  return changed;
}

[[nodiscard]] bool in_classes(const std::optional<std::vector<ClassIndex>>& list,
                              ClassIndex cls) {
  return list && std::find(list->begin(), list->end(), cls) != list->end();
}

void emit(std::vector<Diagnostic>& out, Code code, const Production& p,
          const ops5::SourceLoc& loc, std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = default_severity(code);
  d.production = p.name();
  d.loc = loc;
  d.message = std::move(message);
  out.push_back(d);
}

}  // namespace

// ---------------------------------------------------------------------------
// analyze_value_domains
// ---------------------------------------------------------------------------

ValueDomainReport analyze_value_domains(const Program& program,
                                        const ValueDomainOptions& options) {
  ValueDomainReport report;
  State st = initial_state(program, options);

  bool changed = true;
  std::size_t iter = 0;
  while (changed && iter < kMaxIterations) {
    changed = transfer_round(program, st);
    ++iter;
  }
  report.iterations = iter;
  report.converged = !changed;
  report.domains = st.domains;
  report.reachable = st.reachable;

  // Never report on a state that is not a proven fixpoint.
  if (!report.converged) return report;

  for (const auto& p : program.productions()) {
    // AN014 / AN015: constant tests against the inferred domains. Tests on
    // unreachable classes are skipped — AN003/AN009 already cover those.
    for (const auto& ce : p.lhs()) {
      if (!st.reachable[ce.cls]) continue;
      for (const auto& t : ce.tests) {
        if (t.is_variable) continue;
        const ValueDomain& d = st.domains[ce.cls][t.slot];
        if (t.is_disjunction()) {
          if (!d.may_satisfy_disjunction(t.disjunction)) {
            emit(report.diagnostics, Code::AlwaysFalseCondition, p, ce.loc,
                 "condition " + test_text(program, ce, t) + " can never match: domain of " +
                     slot_text(program, ce.cls, t.slot) + " is " +
                     d.render(program.symbols()));
          }
          continue;
        }
        if (d.may_satisfy(t.pred, t.constant)) continue;
        const bool order_pred = t.pred != Predicate::Eq && t.pred != Predicate::Ne;
        const bool type_mismatch =
            (order_pred && !t.constant.is_number()) || !d.has_kind_of(t.constant);
        const Code code =
            type_mismatch ? Code::AttributeTypeMismatch : Code::AlwaysFalseCondition;
        std::string why = type_mismatch
                              ? " can never pass: no value of this type occurs in "
                              : " can never pass: value-disjoint with domain of ";
        emit(report.diagnostics, code, p, ce.loc,
             "test " + test_text(program, ce, t) + why +
                 slot_text(program, ce.cls, t.slot) + " = " + d.render(program.symbols()));
      }
    }
    // AN016: equality joins whose site domains share no value.
    for (const auto& [var, sites] : eq_sites(p, st)) {
      bool reported = false;
      for (std::size_t i = 0; i + 1 < sites.size() && !reported; ++i) {
        for (std::size_t j = i + 1; j < sites.size() && !reported; ++j) {
          if (!st.reachable[sites[i].ce->cls] || !st.reachable[sites[j].ce->cls]) continue;
          if (sites[i].domain.intersects(sites[j].domain)) continue;
          emit(report.diagnostics, Code::InfeasibleJoin, p, sites[j].ce->loc,
               "join on <" + program.variable_name(var) + "> is infeasible: " +
                   slot_text(program, sites[i].ce->cls, sites[i].slot) + " in " +
                   sites[i].domain.render(program.symbols()) + " never equals " +
                   slot_text(program, sites[j].ce->cls, sites[j].slot) + " in " +
                   sites[j].domain.render(program.symbols()));
          reported = true;
        }
      }
    }
    // AN017: a modify whose written values make the WME unmatchable by every
    // condition on its class. Only meaningful when the output classes are
    // declared (a narrowing write to an output class is the normal way to
    // retire a WME from matching — LCC's `^counted yes` refraction idiom).
    if (options.output_classes && !production_infeasible(p, st)) {
      Env env = binding_env(program, p, st);
      for (const auto& action : p.rhs()) {
        if (const auto* bind = std::get_if<ops5::BindAction>(&action)) {
          if (bind->var < env.bound.size()) {
            env.domains[bind->var] = eval_expr(bind->expr, env);
            env.bound[bind->var] = 1;
          }
          continue;
        }
        const auto* mod = std::get_if<ops5::ModifyAction>(&action);
        if (mod == nullptr) continue;
        const ConditionElement* target = positive_ce(p, mod->ce_index);
        if (target == nullptr) continue;
        const ClassIndex cls = target->cls;
        if (in_classes(options.output_classes, cls)) continue;
        std::vector<std::pair<SlotIndex, ValueDomain>> written;
        for (const auto& [slot, expr] : mod->sets) {
          written.emplace_back(slot, eval_expr(expr, env));
        }
        if (written.empty()) continue;
        bool any_ce = false;
        bool all_blocked = true;
        for (const auto& q : program.productions()) {
          for (const auto& ce : q.lhs()) {
            if (ce.cls != cls) continue;
            any_ce = true;
            bool blocked = false;
            for (const auto& [slot, w] : written) {
              for (const auto& t : ce.tests) {
                if (t.slot != slot || t.is_variable) continue;
                const bool pass = t.is_disjunction()
                                      ? w.may_satisfy_disjunction(t.disjunction)
                                      : w.may_satisfy(t.pred, t.constant);
                if (!pass) {
                  blocked = true;
                  break;
                }
              }
              if (blocked) break;
            }
            if (!blocked) all_blocked = false;
          }
          if (!all_blocked) break;
        }
        if (any_ce && all_blocked) {
          std::string msg = "modify of " +
                            std::string(program.symbols().name(target->class_name)) +
                            " writes";
          for (const auto& [slot, w] : written) {
            msg += " ^";
            msg += program.symbols().name(program.wme_class(cls).attributes()[slot]);
            msg += " in ";
            msg += w.render(program.symbols());
          }
          msg += "; no condition on the class can match the result";
          emit(report.diagnostics, Code::DeadWriteModify, p, p.location(), std::move(msg));
        }
      }
    }
  }
  return report;
}

}  // namespace psmsys::analysis
