#include "analysis/interference.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace psmsys::analysis {

namespace {

using ops5::BindAction;
using ops5::ClassIndex;
using ops5::ConditionElement;
using ops5::Expr;
using ops5::MakeAction;
using ops5::ModifyAction;
using ops5::Predicate;
using ops5::Production;
using ops5::Program;
using ops5::RemoveAction;
using ops5::SlotIndex;
using ops5::Symbol;
using ops5::Value;
using ops5::VariableId;

[[nodiscard]] bool value_less(const Value& a, const Value& b) noexcept {
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind());
  }
  switch (a.kind()) {
    case Value::Kind::Nil: return false;
    case Value::Kind::Sym: return ops5::index_of(a.symbol()) < ops5::index_of(b.symbol());
    case Value::Kind::Num: return a.number() < b.number();
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// AbstractVal
// ---------------------------------------------------------------------------

AbstractVal AbstractVal::bottom() {
  AbstractVal v;
  v.kind_ = Kind::Bottom;
  return v;
}

AbstractVal AbstractVal::of(const Value& v) { return finite({v}); }

AbstractVal AbstractVal::finite(std::vector<Value> values) {
  std::sort(values.begin(), values.end(), value_less);
  values.erase(std::unique(values.begin(), values.end()), values.end());
  AbstractVal out;
  if (values.empty()) {
    out.kind_ = Kind::Bottom;
  } else if (values.size() > kMaxFinite) {
    out.kind_ = Kind::Top;
  } else {
    out.kind_ = Kind::Finite;
    out.values_ = std::move(values);
  }
  return out;
}

std::optional<Value> AbstractVal::singleton() const {
  if (kind_ == Kind::Finite && values_.size() == 1) return values_.front();
  return std::nullopt;
}

bool AbstractVal::contains(const Value& v) const {
  switch (kind_) {
    case Kind::Bottom: return false;
    case Kind::Top: return true;
    case Kind::Finite:
      return std::binary_search(values_.begin(), values_.end(), v, value_less);
  }
  return false;
}

AbstractVal AbstractVal::join(const AbstractVal& o) const {
  if (is_bottom()) return o;
  if (o.is_bottom()) return *this;
  if (is_top() || o.is_top()) return top();
  std::vector<Value> merged;
  merged.reserve(values_.size() + o.values_.size());
  std::merge(values_.begin(), values_.end(), o.values_.begin(), o.values_.end(),
             std::back_inserter(merged), value_less);
  return finite(std::move(merged));
}

AbstractVal AbstractVal::meet(const AbstractVal& o) const {
  if (is_bottom() || o.is_bottom()) return bottom();
  if (is_top()) return o;
  if (o.is_top()) return *this;
  std::vector<Value> both;
  std::set_intersection(values_.begin(), values_.end(), o.values_.begin(), o.values_.end(),
                        std::back_inserter(both), value_less);
  return finite(std::move(both));
}

bool AbstractVal::provably_disjoint(const AbstractVal& o) const {
  if (is_bottom() || o.is_bottom()) return true;
  if (is_top() || o.is_top()) return false;
  return meet(o).is_bottom();
}

bool AbstractVal::operator==(const AbstractVal& o) const {
  return kind_ == o.kind_ && values_ == o.values_;
}

std::string AbstractVal::to_string(const ops5::SymbolTable& symbols) const {
  switch (kind_) {
    case Kind::Bottom: return "(none)";
    case Kind::Top: return "(any)";
    case Kind::Finite: {
      std::string out = "{";
      const std::size_t shown = std::min<std::size_t>(values_.size(), 8);
      for (std::size_t i = 0; i < shown; ++i) {
        if (i != 0) out += ' ';
        out += values_[i].to_string(symbols);
      }
      if (values_.size() > shown) out += " ...";
      out += '}';
      return out;
    }
  }
  return "?";
}

std::string_view conflict_kind_name(ConflictKind k) noexcept {
  switch (k) {
    case ConflictKind::WriteWrite: return "write-write";
    case ConflictKind::ReadWrite: return "read-write";
    case ConflictKind::RemoveWrite: return "remove-write";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

namespace {

using SlotMap = std::map<SlotIndex, AbstractVal>;
using SlotKey = std::pair<ClassIndex, SlotIndex>;
using VarEnv = std::unordered_map<VariableId, AbstractVal>;

enum class WriteOp : std::uint8_t { Make, Modify, Remove };

struct WriteRec {
  const Production* prod = nullptr;  ///< null = task injection
  ClassIndex cls = 0;
  WriteOp op = WriteOp::Make;
  bool guarded = false;  ///< make keyed by its own negated-CE guard
  SlotMap vals;          ///< Make: every slot; Modify: assigned slots
  SlotMap target;        ///< Modify/Remove: the matched CE's refined pattern
};

struct ReadRec {
  const Production* prod = nullptr;
  ClassIndex cls = 0;
  bool negated = false;
  SlotMap pattern;  ///< refined slots only; untested slots are implicitly Top
};

struct ProdResult {
  std::vector<ReadRec> reads;    ///< on tracked (non-base) classes
  std::vector<WriteRec> writes;  ///< every class (global pass applies them all)
};

struct TaskEval {
  const TaskSpec* task = nullptr;
  std::vector<WriteRec> writes;  ///< on tracked classes, incl. the injections
  std::vector<ReadRec> reads;    ///< from result-tainting productions
  std::size_t activatable = 0;
  std::size_t result_writes = 0;
};

/// ∃ slot present in both maps whose values cannot overlap.
[[nodiscard]] bool patterns_disjoint(const SlotMap& a, const SlotMap& b) {
  for (const auto& [slot, v] : a) {
    const auto it = b.find(slot);
    if (it != b.end() && v.provably_disjoint(it->second)) return true;
  }
  return false;
}

class Checker {
 public:
  explicit Checker(const DecompositionSpec& spec)
      : spec_(spec), prog_(*spec.program) {
    for (const ClassIndex c : spec_.base_classes) base_.insert(c);
    for (const auto& rc : spec_.result_classes) {
      result_keys_[rc.cls] = rc.key_slots;
    }
    for (const auto& fact : spec_.facts) {
      facts_[{fact.cls, fact.guard_slot}].push_back(&fact);
    }
  }

  InterferenceReport run() {
    build_injection_join();
    global_fixpoint();
    classify_productions();
    std::vector<TaskEval> evals;
    evals.reserve(spec_.tasks.size());
    for (const auto& task : spec_.tasks) evals.push_back(eval_task(task));
    InterferenceReport report;
    for (const auto& te : evals) {
      report.tasks.push_back(TaskFootprintSummary{te.task->task_id, te.activatable,
                                                  te.result_writes, te.reads.size()});
    }
    detect_write_write(evals, report);
    detect_read_write(evals, report);
    return report;
  }

 private:
  [[nodiscard]] bool is_base(ClassIndex c) const { return base_.contains(c); }
  [[nodiscard]] bool is_result(ClassIndex c) const { return result_keys_.contains(c); }
  [[nodiscard]] bool tracked(ClassIndex c) const { return !is_base(c); }

  [[nodiscard]] std::string class_name(ClassIndex c) const {
    return prog_.symbols().name(prog_.wme_class(c).name());
  }

  // --- expression evaluation --------------------------------------------

  [[nodiscard]] AbstractVal eval_expr(const Expr& expr, const VarEnv& env) const {
    if (const auto* value = std::get_if<Value>(&expr.node)) return AbstractVal::of(*value);
    if (const auto* var = std::get_if<ops5::VarRef>(&expr.node)) {
      const auto it = env.find(var->var);
      return it != env.end() ? it->second : AbstractVal::top();
    }
    const auto& call = std::get<ops5::CallExpr>(expr.node);
    const std::optional<ops5::ArithOp> op = ops5::arith_op(prog_.symbols().name(call.function));
    if (!op || call.args.size() != 2) {
      // External function: Top under the pure-externals assumption (see
      // DecompositionSpec; the value is unknown but deterministic in its
      // arguments).
      return AbstractVal::top();
    }
    const AbstractVal a = eval_expr(call.args[0], env);
    const AbstractVal b = eval_expr(call.args[1], env);
    return eval_arith(*op, a, b);
  }

  [[nodiscard]] static AbstractVal eval_arith(ops5::ArithOp op, const AbstractVal& a,
                                              const AbstractVal& b) {
    if (a.is_bottom() || b.is_bottom()) return AbstractVal::bottom();
    if (!a.is_finite() || !b.is_finite()) return AbstractVal::top();
    if (a.values().size() * b.values().size() > AbstractVal::kMaxFinite) {
      return AbstractVal::top();
    }
    std::vector<Value> out;
    for (const Value& x : a.values()) {
      for (const Value& y : b.values()) {
        if (!x.is_number() || !y.is_number()) return AbstractVal::top();
        // A zero divisor aborts the firing: no value flows.
        if (const auto v = ops5::apply_arith(op, x.number(), y.number())) out.emplace_back(*v);
      }
    }
    return AbstractVal::finite(std::move(out));
  }

  // --- abstract state ----------------------------------------------------

  struct EvalCtx {
    std::set<ClassIndex> injected;          ///< classes this eval's task injects
    std::map<SlotKey, AbstractVal> injected_vals;
    const std::set<ClassIndex>* avail = nullptr;          ///< written classes
    const std::map<SlotKey, AbstractVal>* vals = nullptr; ///< their invariants
  };

  [[nodiscard]] bool class_avail(const EvalCtx& ctx, ClassIndex cls) const {
    return ctx.injected.contains(cls) || base_.contains(cls) || ctx.avail->contains(cls);
  }

  /// Anchor for a slot before the CE's own tests refine it. Injected classes
  /// use *this task's* injection (per-task trigger anchoring); base classes
  /// are unconstrained input; task-written classes use the cross-task
  /// invariant — never this task's own writes, because WMEs written by other
  /// tasks on a shared process are equally matchable.
  [[nodiscard]] AbstractVal slot_default(const EvalCtx& ctx, ClassIndex cls,
                                         SlotIndex slot) const {
    if (ctx.injected.contains(cls)) {
      const auto it = ctx.injected_vals.find({cls, slot});
      return it != ctx.injected_vals.end() ? it->second : AbstractVal::of(Value{});
    }
    if (base_.contains(cls)) return AbstractVal::top();
    const auto it = ctx.vals->find({cls, slot});
    return it != ctx.vals->end() ? it->second : AbstractVal::top();
  }

  // --- condition elements ------------------------------------------------

  SlotMap eval_ce(const ConditionElement& ce, const EvalCtx& ctx, VarEnv& env, bool bind_new,
                  bool& unsat) const {
    SlotMap sm;
    const auto get = [&](SlotIndex slot) -> AbstractVal& {
      const auto it = sm.find(slot);
      if (it != sm.end()) return it->second;
      return sm.emplace(slot, slot_default(ctx, ce.cls, slot)).first->second;
    };

    // Constant tests.
    for (const auto& test : ce.tests) {
      if (test.is_variable) continue;
      AbstractVal& v = get(test.slot);
      if (test.is_disjunction()) {
        v = v.meet(AbstractVal::finite(test.disjunction));
      } else if (test.pred == Predicate::Eq) {
        v = v.meet(AbstractVal::of(test.constant));
      } else if (v.is_finite()) {
        std::vector<Value> kept;
        for (const Value& x : v.values()) {
          if (ops5::apply_predicate(test.pred, x, test.constant)) kept.push_back(x);
        }
        v = AbstractVal::finite(std::move(kept));
      }
    }

    // Tests against already-bound variables.
    for (const auto& test : ce.tests) {
      if (!test.is_variable) continue;
      const auto bound = env.find(test.var);
      if (bound == env.end()) continue;
      AbstractVal& v = get(test.slot);
      if (test.pred == Predicate::Eq) {
        const AbstractVal m = v.meet(bound->second);
        v = m;
        if (bind_new) env[test.var] = m;
      } else if (test.pred == Predicate::Ne) {
        if (const auto sv = bound->second.singleton(); sv && v.is_finite()) {
          std::vector<Value> kept;
          for (const Value& x : v.values()) {
            if (!(x == *sv)) kept.push_back(x);
          }
          v = AbstractVal::finite(std::move(kept));
        }
      } else if (v.is_finite() && bound->second.is_finite()) {
        bool satisfiable = false;
        for (const Value& x : v.values()) {
          for (const Value& y : bound->second.values()) {
            if (ops5::apply_predicate(test.pred, x, y)) {
              satisfiable = true;
              break;
            }
          }
          if (satisfiable) break;
        }
        if (!satisfiable) v = AbstractVal::bottom();
      }
    }

    // Data facts: if the guard slot's value set is fully covered by facts,
    // meet the joined implications into the implied slots.
    apply_facts(ce.cls, ctx, sm, get);

    for (const auto& [slot, v] : sm) {
      if (v.is_bottom()) unsat = true;
    }

    // Bind new variables to the refined slot values.
    if (bind_new) {
      for (const auto& test : ce.tests) {
        if (test.is_variable && test.pred == Predicate::Eq && !env.contains(test.var)) {
          env.emplace(test.var, get(test.slot));
        }
      }
    }
    return sm;
  }

  template <typename Get>
  void apply_facts(ClassIndex cls, const EvalCtx& ctx, SlotMap& sm, const Get& get) const {
    for (const auto& [key, facts] : facts_) {
      if (key.first != cls) continue;
      const SlotIndex guard = key.second;
      const auto it = sm.find(guard);
      const AbstractVal gv = it != sm.end() ? it->second : slot_default(ctx, cls, guard);
      if (!gv.is_finite()) continue;
      // Every possible guard value must be covered by a fact, else the
      // implications do not hold for all matchable WMEs.
      std::map<SlotIndex, AbstractVal> implied;
      bool covered = true;
      for (const Value& v : gv.values()) {
        const DataFact* match = nullptr;
        for (const DataFact* fact : facts) {
          if (fact->guard_value == v) {
            match = fact;
            break;
          }
        }
        if (match == nullptr) {
          covered = false;
          break;
        }
        for (const auto& [slot, val] : match->implied) {
          const auto imp = implied.find(slot);
          if (imp == implied.end()) {
            implied.emplace(slot, val);
          } else {
            imp->second = imp->second.join(val);
          }
        }
      }
      if (!covered) continue;
      for (const auto& [slot, val] : implied) {
        AbstractVal& v = get(slot);
        v = v.meet(val);
      }
    }
  }

  // --- production evaluation ---------------------------------------------

  [[nodiscard]] std::optional<ProdResult> eval_production(const Production& prod,
                                                          const EvalCtx& ctx) const {
    VarEnv env;
    std::vector<SlotMap> pos_patterns;
    std::vector<ClassIndex> pos_classes;
    ProdResult result;

    for (const auto& ce : prod.lhs()) {
      if (ce.negated) continue;
      if (!class_avail(ctx, ce.cls)) return std::nullopt;
      bool unsat = false;
      SlotMap sm = eval_ce(ce, ctx, env, /*bind_new=*/true, unsat);
      if (unsat) return std::nullopt;
      if (tracked(ce.cls)) result.reads.push_back(ReadRec{&prod, ce.cls, false, sm});
      pos_patterns.push_back(std::move(sm));
      pos_classes.push_back(ce.cls);
    }
    for (const auto& ce : prod.lhs()) {
      if (!ce.negated) continue;
      if (!tracked(ce.cls)) continue;
      bool unsat = false;
      VarEnv frozen = env;  // negated-CE variables are local; no leaking binds
      SlotMap sm = eval_ce(ce, ctx, frozen, /*bind_new=*/false, unsat);
      if (!unsat) result.reads.push_back(ReadRec{&prod, ce.cls, true, std::move(sm)});
    }

    VarEnv local = env;
    for (const auto& action : prod.rhs()) {
      if (const auto* make = std::get_if<MakeAction>(&action)) {
        WriteRec w;
        w.prod = &prod;
        w.cls = make->cls;
        w.op = WriteOp::Make;
        const std::size_t arity = prog_.wme_class(make->cls).arity();
        for (SlotIndex slot = 0; slot < arity; ++slot) {
          w.vals.emplace(slot, AbstractVal::of(Value{}));
        }
        for (const auto& [slot, expr] : make->sets) {
          w.vals[slot] = eval_expr(expr, local);
        }
        w.guarded = guarded_make(prod, *make, w.vals, env);
        result.writes.push_back(std::move(w));
      } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
        if (mod->ce_index == 0 || mod->ce_index > pos_patterns.size()) continue;
        WriteRec w;
        w.prod = &prod;
        w.cls = pos_classes[mod->ce_index - 1];
        w.op = WriteOp::Modify;
        w.target = pos_patterns[mod->ce_index - 1];
        for (const auto& [slot, expr] : mod->sets) {
          w.vals[slot] = eval_expr(expr, local);
        }
        result.writes.push_back(std::move(w));
      } else if (const auto* rem = std::get_if<RemoveAction>(&action)) {
        if (rem->ce_index == 0 || rem->ce_index > pos_patterns.size()) continue;
        WriteRec w;
        w.prod = &prod;
        w.cls = pos_classes[rem->ce_index - 1];
        w.op = WriteOp::Remove;
        w.target = pos_patterns[rem->ce_index - 1];
        result.writes.push_back(std::move(w));
      } else if (const auto* bind = std::get_if<BindAction>(&action)) {
        local[bind->var] = eval_expr(bind->expr, local);
      }
    }
    return result;
  }

  /// A make is guarded when the production carries a negated CE over the
  /// written class whose every test is mirrored by the make: variable
  /// equality tests must be written back verbatim from a positively bound
  /// variable (the key), and constant tests must provably hold for the
  /// written value. Such a make creates at most one WME per key per engine,
  /// with content a function of the key (given pure externals) — confluent
  /// across task placements.
  [[nodiscard]] bool guarded_make(const Production& prod, const MakeAction& make,
                                  const SlotMap& vals, const VarEnv& bound) const {
    const auto last_set = [&](SlotIndex slot) -> const Expr* {
      const Expr* found = nullptr;
      for (const auto& [s, expr] : make.sets) {
        if (s == slot) found = &expr;
      }
      return found;
    };
    for (const auto& ce : prod.lhs()) {
      if (!ce.negated || ce.cls != make.cls) continue;
      bool keyed = false;
      bool compatible = true;
      for (const auto& test : ce.tests) {
        if (test.is_variable) {
          const Expr* expr = last_set(test.slot);
          const ops5::VarRef* ref =
              expr != nullptr ? std::get_if<ops5::VarRef>(&expr->node) : nullptr;
          if (test.pred == Predicate::Eq && ref != nullptr && ref->var == test.var &&
              bound.contains(test.var)) {
            keyed = true;
          } else {
            compatible = false;
            break;
          }
        } else {
          const auto it = vals.find(test.slot);
          const bool holds = it != vals.end() && it->second.is_finite() &&
                             std::all_of(it->second.values().begin(), it->second.values().end(),
                                         [&](const Value& v) {
                                           return ops5::constant_test_passes(test, v);
                                         });
          if (!holds) {
            compatible = false;
            break;
          }
        }
      }
      if (keyed && compatible) return true;
    }
    return false;
  }

  // --- global invariant pass ---------------------------------------------

  void build_injection_join() {
    for (const auto& task : spec_.tasks) {
      for (const auto& wme : task.wmes) {
        injected_classes_.insert(wme.cls);
        const std::size_t arity = prog_.wme_class(wme.cls).arity();
        SlotMap vals;
        for (SlotIndex slot = 0; slot < arity; ++slot) {
          vals.emplace(slot, AbstractVal::of(Value{}));
        }
        for (const auto& [slot, value] : wme.slots) vals[slot] = AbstractVal::of(value);
        for (const auto& [slot, v] : vals) {
          const SlotKey key{wme.cls, slot};
          const auto it = injection_join_.find(key);
          if (it == injection_join_.end()) {
            injection_join_.emplace(key, v);
          } else {
            it->second = it->second.join(v);
          }
        }
      }
    }
  }

  void global_fixpoint() {
    EvalCtx ctx;
    ctx.injected = injected_classes_;
    ctx.injected_vals = injection_join_;
    ctx.avail = &global_avail_;
    ctx.vals = &global_vals_;

    constexpr int kWidenAfter = 8;
    constexpr int kMaxIters = 48;
    for (int iter = 0; iter < kMaxIters; ++iter) {
      bool changed = false;
      const bool widen = iter >= kWidenAfter;
      for (const auto& prod : prog_.productions()) {
        const auto result = eval_production(prod, ctx);
        if (!result) continue;
        for (const auto& w : result->writes) {
          if (w.op == WriteOp::Remove) continue;
          if (w.op == WriteOp::Make && global_avail_.insert(w.cls).second) changed = true;
          for (const auto& [slot, v] : w.vals) {
            AbstractVal& cur =
                global_vals_.emplace(SlotKey{w.cls, slot}, AbstractVal::bottom()).first->second;
            AbstractVal next = cur.join(v);
            if (next == cur) continue;
            if (widen && cur.is_finite() && next.is_finite()) next = AbstractVal::top();
            cur = std::move(next);
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
  }

  /// Result-taint and forgiveness, from a final evaluation against the
  /// stable global invariant.
  void classify_productions() {
    EvalCtx ctx;
    ctx.injected = injected_classes_;
    ctx.injected_vals = injection_join_;
    ctx.avail = &global_avail_;
    ctx.vals = &global_vals_;
    for (const auto& prod : prog_.productions()) {
      const auto result = eval_production(prod, ctx);
      if (!result) continue;
      ProdInfo info;
      bool all_result_writes_guarded_makes = true;
      for (const auto& w : result->writes) {
        if (!is_result(w.cls)) continue;
        const auto& keys = result_keys_.at(w.cls);
        switch (w.op) {
          case WriteOp::Make:
            info.taints = true;
            if (!w.guarded) all_result_writes_guarded_makes = false;
            break;
          case WriteOp::Modify: {
            const bool writes_key = std::any_of(keys.begin(), keys.end(), [&](SlotIndex k) {
              return w.vals.contains(k);
            });
            if (writes_key) {
              info.taints = true;
              all_result_writes_guarded_makes = false;
            }
            break;
          }
          case WriteOp::Remove:
            info.taints = true;
            all_result_writes_guarded_makes = false;
            break;
        }
      }
      info.forgiven = info.taints && all_result_writes_guarded_makes;
      info_.emplace(&prod, info);
    }
  }

  // --- per-task pass ------------------------------------------------------

  [[nodiscard]] TaskEval eval_task(const TaskSpec& task) const {
    TaskEval te;
    te.task = &task;

    EvalCtx ctx;
    ctx.avail = &global_avail_;
    ctx.vals = &global_vals_;
    for (const auto& wme : task.wmes) {
      ctx.injected.insert(wme.cls);
      const std::size_t arity = prog_.wme_class(wme.cls).arity();
      SlotMap vals;
      for (SlotIndex slot = 0; slot < arity; ++slot) {
        vals.emplace(slot, AbstractVal::of(Value{}));
      }
      for (const auto& [slot, value] : wme.slots) vals[slot] = AbstractVal::of(value);
      for (const auto& [slot, v] : vals) {
        const SlotKey key{wme.cls, slot};
        const auto it = ctx.injected_vals.find(key);
        if (it == ctx.injected_vals.end()) {
          ctx.injected_vals.emplace(key, v);
        } else {
          it->second = it->second.join(v);
        }
      }
      // The injection itself is a write other tasks' matches can see.
      if (tracked(wme.cls)) {
        WriteRec w;
        w.cls = wme.cls;
        w.op = WriteOp::Make;
        w.vals = vals;
        te.writes.push_back(std::move(w));
      }
    }

    for (const auto& prod : prog_.productions()) {
      const auto result = eval_production(prod, ctx);
      if (!result) continue;
      ++te.activatable;
      const auto info = info_.find(&prod);
      for (const auto& w : result->writes) {
        if (!tracked(w.cls)) continue;
        if (is_result(w.cls)) ++te.result_writes;
        te.writes.push_back(w);
      }
      if (info != info_.end() && info->second.taints) {
        te.reads.insert(te.reads.end(), result->reads.begin(), result->reads.end());
      }
    }
    return te;
  }

  // --- conflict detection -------------------------------------------------

  struct ConflictSink {
    InterferenceReport& report;
    std::set<std::tuple<int, ClassIndex, const Production*, const Production*>> seen;

    [[nodiscard]] bool full() const {
      return report.conflicts.size() >= InterferenceReport::kMaxConflicts;
    }

    void add(ConflictKind kind, ClassIndex cls, const TaskEval& a, const TaskEval& b,
             const Production* pa, const Production* pb, std::string detail) {
      const Production* lo = pa < pb ? pa : pb;
      const Production* hi = pa < pb ? pb : pa;
      if (!seen.insert({static_cast<int>(kind), cls, lo, hi}).second) return;
      if (full()) {
        report.conflicts_truncated = true;
        return;
      }
      Conflict c;
      c.kind = kind;
      c.cls = cls;
      c.task_a = a.task->task_id;
      c.task_b = b.task->task_id;
      c.production_a = pa != nullptr ? pa->name() : ops5::kNilSymbol;
      c.production_b = pb != nullptr ? pb->name() : ops5::kNilSymbol;
      c.detail = std::move(detail);
      report.conflicts.push_back(std::move(c));
    }
  };

  [[nodiscard]] std::string key_detail(const SlotMap& vals, ClassIndex cls) const {
    std::string out;
    const auto it = result_keys_.find(cls);
    if (it == result_keys_.end()) return out;
    const auto& attrs = prog_.wme_class(cls).attributes();
    for (const SlotIndex k : it->second) {
      if (!out.empty()) out += ' ';
      out += '^';
      out += prog_.symbols().name(attrs[k]);
      out += '=';
      const auto v = vals.find(k);
      out += v != vals.end() ? v->second.to_string(prog_.symbols()) : "(any)";
    }
    return out;
  }

  void detect_write_write(const std::vector<TaskEval>& evals, InterferenceReport& report) {
    ConflictSink sink{report, {}};

    for (const auto& [cls, keys] : result_keys_) {
      struct Rec {
        const TaskEval* te;
        const WriteRec* w;
      };
      std::vector<Rec> makes;
      std::vector<Rec> others;  // key-writing modifies + removes
      for (const auto& te : evals) {
        for (const auto& w : te.writes) {
          if (w.cls != cls) continue;
          if (w.op == WriteOp::Make) {
            makes.push_back({&te, &w});
          } else {
            const bool writes_key =
                w.op == WriteOp::Remove ||
                std::any_of(keys.begin(), keys.end(),
                            [&](SlotIndex k) { return w.vals.contains(k); });
            if (writes_key) others.push_back({&te, &w});
          }
        }
      }

      const auto check_make_pair = [&](const Rec& a, const Rec& b) {
        if (a.te == b.te || sink.full()) return;
        ++report.pairs_checked;
        if (a.w->prod != nullptr && a.w->prod == b.w->prod && a.w->guarded && b.w->guarded) {
          return;  // same guarded make: at most one WME per key, same content
        }
        for (const SlotIndex k : keys) {
          if (a.w->vals.at(k).provably_disjoint(b.w->vals.at(k))) return;
        }
        sink.add(ConflictKind::WriteWrite, cls, *a.te, *b.te, a.w->prod, b.w->prod,
                 "both create '" + class_name(cls) + "' with overlapping keys: " +
                     key_detail(a.w->vals, cls) + " vs " + key_detail(b.w->vals, cls));
      };

      // Bucket the makes on the key slot with the most distinct singleton
      // values; cross-bucket pairs are disjoint by construction. This keeps
      // Level-1 decompositions (thousands of tasks) near-linear.
      SlotIndex bucket_slot = ops5::kInvalidSlot;
      std::size_t best_distinct = 0;
      for (const SlotIndex k : keys) {
        std::set<std::size_t> distinct;
        bool all_singleton = true;
        for (const auto& rec : makes) {
          const auto sv = rec.w->vals.at(k).singleton();
          if (!sv) {
            all_singleton = false;
            break;
          }
          distinct.insert(sv->hash());
        }
        if (all_singleton && distinct.size() > best_distinct) {
          best_distinct = distinct.size();
          bucket_slot = k;
        }
      }
      if (bucket_slot != ops5::kInvalidSlot && best_distinct > 1) {
        std::unordered_map<Value, std::vector<std::size_t>, ops5::ValueHash> buckets;
        for (std::size_t i = 0; i < makes.size(); ++i) {
          buckets[*makes[i].w->vals.at(bucket_slot).singleton()].push_back(i);
        }
        for (const auto& [value, members] : buckets) {
          for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
              check_make_pair(makes[members[i]], makes[members[j]]);
            }
          }
        }
      } else {
        for (std::size_t i = 0; i < makes.size(); ++i) {
          for (std::size_t j = i + 1; j < makes.size(); ++j) {
            check_make_pair(makes[i], makes[j]);
          }
        }
      }

      // Key-writing modifies and removes are rare; check them against
      // everything.
      for (const auto& o : others) {
        for (const auto& m : makes) {
          if (o.te == m.te || sink.full()) continue;
          ++report.pairs_checked;
          if (patterns_disjoint(o.w->target, m.w->vals)) continue;
          const auto kind =
              o.w->op == WriteOp::Remove ? ConflictKind::RemoveWrite : ConflictKind::WriteWrite;
          sink.add(kind, cls, *o.te, *m.te, o.w->prod, m.w->prod,
                   std::string(o.w->op == WriteOp::Remove ? "removes" : "rewrites keys of") +
                       " '" + class_name(cls) + "' WMEs another task creates (" +
                       key_detail(m.w->vals, cls) + ")");
        }
        for (const auto& o2 : others) {
          if (o.te == o2.te || o.w == o2.w || sink.full()) continue;
          ++report.pairs_checked;
          if (patterns_disjoint(o.w->target, o2.w->target)) continue;
          sink.add(ConflictKind::WriteWrite, cls, *o.te, *o2.te, o.w->prod, o2.w->prod,
                   "both rewrite or remove the same '" + class_name(cls) + "' WMEs");
        }
      }
    }
  }

  void detect_read_write(const std::vector<TaskEval>& evals, InterferenceReport& report) {
    ConflictSink sink{report, {}};

    // Index all tracked writes by class.
    struct Rec {
      const TaskEval* te;
      const WriteRec* w;
    };
    std::map<ClassIndex, std::vector<Rec>> by_class;
    for (const auto& te : evals) {
      for (const auto& w : te.writes) by_class[w.cls].push_back({&te, &w});
    }

    // Per class: bucket writes by the slot with the most distinct singleton
    // written values, so reads with a finite pattern on that slot probe only
    // matching buckets.
    struct Index {
      SlotIndex slot = ops5::kInvalidSlot;
      std::unordered_map<Value, std::vector<std::size_t>, ops5::ValueHash> buckets;
      std::vector<std::size_t> spill;
    };
    std::map<ClassIndex, Index> indices;
    for (const auto& [cls, recs] : by_class) {
      Index idx;
      std::map<SlotIndex, std::set<std::size_t>> distinct;
      for (const auto& rec : recs) {
        for (const auto& [slot, v] : rec.w->vals) {
          if (const auto sv = v.singleton()) distinct[slot].insert(sv->hash());
        }
      }
      std::size_t best = 1;
      for (const auto& [slot, values] : distinct) {
        if (values.size() > best) {
          best = values.size();
          idx.slot = slot;
        }
      }
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const WriteRec& w = *recs[i].w;
        // Bucket on written value for makes; modifies/removes change or drop
        // existing WMEs, so bucket on the target pattern when singular.
        const SlotMap& where = w.op == WriteOp::Make ? w.vals : w.target;
        const auto it = idx.slot != ops5::kInvalidSlot ? where.find(idx.slot) : where.end();
        const auto sv = it != where.end() ? it->second.singleton() : std::nullopt;
        if (sv) {
          idx.buckets[*sv].push_back(i);
        } else {
          idx.spill.push_back(i);
        }
      }
      indices.emplace(cls, std::move(idx));
    }

    const auto overlaps = [&](const ReadRec& r, const WriteRec& w) {
      switch (w.op) {
        case WriteOp::Make:
          return !patterns_disjoint(r.pattern, w.vals);
        case WriteOp::Modify: {
          SlotMap post = w.target;
          for (const auto& [slot, v] : w.vals) post[slot] = v;
          return !patterns_disjoint(r.pattern, w.target) ||
                 !patterns_disjoint(r.pattern, post);
        }
        case WriteOp::Remove:
          return !patterns_disjoint(r.pattern, w.target);
      }
      return true;
    };

    for (const auto& te : evals) {
      if (sink.full()) break;
      for (const auto& r : te.reads) {
        const auto recs_it = by_class.find(r.cls);
        if (recs_it == by_class.end()) continue;
        const auto& recs = recs_it->second;
        const Index& idx = indices.at(r.cls);
        const auto info_it = info_.find(r.prod);
        const bool reader_forgiven = info_it != info_.end() && info_it->second.forgiven;

        const auto check = [&](std::size_t i) {
          const Rec& rec = recs[i];
          if (rec.te == &te || sink.full()) return;
          ++report.pairs_checked;
          if (!overlaps(r, *rec.w)) return;
          if (reader_forgiven) {
            if (!r.negated && rec.w->op == WriteOp::Make &&
                (rec.w->guarded || rec.w->prod == r.prod)) {
              // Confluent: the reader's result writes are keyed and the
              // matched WME's content is itself keyed — a cross-task match
              // reproduces WMEs the owning task also produces.
              return;
            }
            if (r.negated && rec.w->prod == r.prod) {
              // The guard being satisfied early by the same production in
              // another task suppresses only an identical duplicate.
              return;
            }
          }
          std::string detail = r.negated ? "negated CE on '" : "matches '";
          detail += class_name(r.cls);
          detail += "' WMEs another task ";
          detail += rec.w->prod == nullptr
                        ? "injects"
                        : (rec.w->op == WriteOp::Make
                               ? "creates"
                               : (rec.w->op == WriteOp::Modify ? "modifies" : "removes"));
          sink.add(ConflictKind::ReadWrite, r.cls, te, *rec.te, r.prod, rec.w->prod,
                   std::move(detail));
        };

        const auto pattern_it =
            idx.slot != ops5::kInvalidSlot ? r.pattern.find(idx.slot) : r.pattern.end();
        if (pattern_it != r.pattern.end() && pattern_it->second.is_finite()) {
          for (const Value& v : pattern_it->second.values()) {
            const auto bucket = idx.buckets.find(v);
            if (bucket == idx.buckets.end()) continue;
            for (const std::size_t i : bucket->second) check(i);
          }
          for (const std::size_t i : idx.spill) check(i);
        } else {
          for (std::size_t i = 0; i < recs.size(); ++i) check(i);
        }
      }
    }
  }

  struct ProdInfo {
    bool taints = false;    ///< writes merged result WMEs (or their keys)
    bool forgiven = false;  ///< all result writes are guarded makes
  };

  const DecompositionSpec& spec_;
  const Program& prog_;
  std::set<ClassIndex> base_;
  std::map<ClassIndex, std::vector<SlotIndex>> result_keys_;
  std::map<std::pair<ClassIndex, SlotIndex>, std::vector<const DataFact*>> facts_;

  std::set<ClassIndex> injected_classes_;
  std::map<SlotKey, AbstractVal> injection_join_;
  std::set<ClassIndex> global_avail_;
  std::map<SlotKey, AbstractVal> global_vals_;
  std::unordered_map<const Production*, ProdInfo> info_;
};

}  // namespace

std::string InterferenceReport::summary(const Program& program) const {
  std::string out = std::to_string(tasks.size()) + " tasks, " + std::to_string(pairs_checked) +
                    " access pairs checked: ";
  if (independent()) {
    out += "independent (no write-write or read-write conflicts)";
    return out;
  }
  out += std::to_string(conflicts.size());
  out += conflicts_truncated ? "+ conflicts" : " conflicts";
  for (const auto& c : conflicts) {
    out += "\n  [";
    out += conflict_kind_name(c.kind);
    out += "] class '";
    out += program.symbols().name(program.wme_class(c.cls).name());
    out += "' tasks ";
    out += std::to_string(c.task_a);
    out += "/";
    out += std::to_string(c.task_b);
    out += ": ";
    const auto prod_name = [&](Symbol s) {
      return s == ops5::kNilSymbol ? std::string("<task injection>")
                                   : program.symbols().name(s);
    };
    out += prod_name(c.production_a);
    out += " vs ";
    out += prod_name(c.production_b);
    out += " — ";
    out += c.detail;
  }
  return out;
}

InterferenceReport check_interference(const DecompositionSpec& spec) {
  if (spec.empty()) return {};
  return Checker(spec).run();
}

}  // namespace psmsys::analysis
