#include "ops5/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace psmsys::ops5 {

namespace {

[[nodiscard]] const std::shared_ptr<const Program>& require_program(
    const std::shared_ptr<const Program>& program) {
  if (program == nullptr) throw std::invalid_argument("engine needs a program");
  return program;
}

[[nodiscard]] std::shared_ptr<const rete::CompiledNetwork> network_of(
    const std::shared_ptr<const Program>& program,
    std::shared_ptr<const rete::CompiledNetwork> network) {
  if (network == nullptr || &network->program() != require_program(program).get()) {
    throw std::invalid_argument("engine needs the compiled network of its program");
  }
  return network;
}

}  // namespace

// step() drops the cycle's chunks unless it records cycles, so the network
// records them only then.
Engine::Engine(std::shared_ptr<const Program> program,
               std::shared_ptr<const rete::CompiledNetwork> network,
               const ExternalRegistry* externals, EngineConfig options)
    : program_(std::move(program)),
      externals_(externals),
      options_(std::move(options)),
      network_(network_of(program_, std::move(network)), *this, counters_,
               options_.record_cycles) {
  class_wm_.resize(program_->class_count());
  match_mark_ = counters_.match_cost;
}

Engine::Engine(std::shared_ptr<const Program> program, const ExternalRegistry* externals,
               EngineConfig options)
    : Engine(program, std::make_shared<const rete::CompiledNetwork>(*require_program(program)),
             externals, std::move(options)) {}

Engine::~Engine() = default;

// ---------------------------------------------------------------------------
// Working memory
// ---------------------------------------------------------------------------

std::size_t Engine::find_wme(TimeTag tag) const {
  return wm_.find_slot(util::mix_bits(tag),
                       [tag](const WmSlot& slot) { return slot.wme.timetag() == tag; });
}

const Wme& Engine::insert_wme(ClassIndex cls, std::span<const Value> values, TimeTag tag) {
  wm_.reserve_one();
  const std::size_t at = find_wme(tag);
  if (wm_[at] != nullptr) throw std::logic_error("duplicate timetag in working memory");
  std::vector<WmSlot*>& members = class_wm_[cls];
  WmSlot* slot = wm_pool_.acquire();
  slot->wme.reinit(cls, program_->wme_class(cls).name(), values, tag);
  slot->class_pos = static_cast<std::uint32_t>(members.size());
  members.push_back(slot);
  wm_.fill(at, slot);
  return slot->wme;
}

void Engine::erase_wme(std::size_t at) {
  WmSlot* slot = wm_[at];
  std::vector<WmSlot*>& members = class_wm_[slot->wme.class_index()];
  WmSlot* moved = members.back();
  members[slot->class_pos] = moved;
  moved->class_pos = slot->class_pos;
  members.pop_back();
  wm_.erase(at);
  wm_pool_.release(slot);
}

const Wme& Engine::add_wme(ClassIndex cls, std::span<const Value> values) {
  const Wme& ref = insert_wme(cls, values, next_timetag_++);
  ++counters_.wmes_added;
  if (undo_active_) undo_log_.push_back({ref.timetag(), 0, 0, true});
  if (watch_level_ >= 2) {
    watch_sink_("=>WM: " + std::to_string(ref.timetag()) + ": " +
                ref.to_string(program_->symbols(), program_->wme_class(cls)));
  }
  network_.add_wme(ref);
  return ref;
}

const Wme& Engine::make_wme(ClassIndex cls, std::vector<std::pair<SlotIndex, Value>> sets) {
  new_values_.assign(program_->wme_class(cls).arity(), Value{});
  for (auto& [slot, value] : sets) {
    if (slot >= new_values_.size()) throw std::out_of_range("make_wme: slot out of range");
    new_values_[slot] = value;
  }
  return add_wme(cls, new_values_);
}

const Wme& Engine::make_wme(std::string_view class_name,
                            std::vector<std::pair<std::string_view, Value>> sets) {
  const auto cls_sym = program_->symbols().find(class_name);
  if (!cls_sym) throw std::invalid_argument("unknown class: " + std::string(class_name));
  const auto cls = program_->class_index(*cls_sym);
  if (!cls) throw std::invalid_argument("not a WME class: " + std::string(class_name));
  const WmeClass& decl = program_->wme_class(*cls);
  new_values_.assign(decl.arity(), Value{});
  for (auto& [attr, value] : sets) {
    const auto attr_sym = program_->symbols().find(attr);
    if (!attr_sym) throw std::invalid_argument("unknown attribute: " + std::string(attr));
    const SlotIndex slot = decl.slot_of(*attr_sym);
    if (slot == kInvalidSlot) {
      throw std::invalid_argument("class has no attribute ^" + std::string(attr));
    }
    new_values_[slot] = value;
  }
  return add_wme(*cls, new_values_);
}

void Engine::remove_wme(const Wme& wme) {
  const std::size_t at = find_wme(wme.timetag());
  if (wm_[at] == nullptr || &wm_[at]->wme != &wme) {
    throw std::logic_error("removing WME not in working memory");
  }
  ++counters_.wmes_removed;
  if (watch_level_ >= 2) {
    watch_sink_("<=WM: " + std::to_string(wme.timetag()) + ": " +
                wme.to_string(program_->symbols(), program_->wme_class(wme.class_index())));
  }
  if (undo_active_) {
    undo_log_.push_back({wme.timetag(), undo_values_.size(), wme.class_index(), false});
    undo_values_.insert(undo_values_.end(), wme.slots().begin(), wme.slots().end());
  }
  network_.remove_wme(wme);
  erase_wme(at);
}

std::size_t Engine::wm_size() const noexcept { return wm_.size(); }

void Engine::set_watch(int level, std::function<void(const std::string&)> sink) {
  if (level < 0 || level > 2) throw std::invalid_argument("watch level must be 0..2");
  watch_level_ = level;
  watch_sink_ = std::move(sink);
  if (watch_level_ > 0 && !watch_sink_) {
    throw std::invalid_argument("watch level > 0 needs a sink");
  }
}

std::vector<const Wme*> Engine::wmes_of_class(ClassIndex cls) const {
  if (cls >= class_wm_.size()) return {};
  const std::vector<WmSlot*>& members = class_wm_[cls];
  std::vector<const Wme*> out;
  out.reserve(members.size());
  for (const WmSlot* slot : members) out.push_back(&slot->wme);
  return out;
}

std::vector<const Wme*> Engine::wmes_of_class(std::string_view class_name) const {
  const auto sym = program_->symbols().find(class_name);
  if (!sym) return {};
  const auto cls = program_->class_index(*sym);
  if (!cls) return {};
  return wmes_of_class(*cls);
}

// ---------------------------------------------------------------------------
// Match listener
// ---------------------------------------------------------------------------

void Engine::on_activate(const Production& production, std::span<const Wme* const> wmes) {
  conflict_set_.add(production, wmes);
  peak_conflict_set_ = std::max(peak_conflict_set_, conflict_set_.size());
}

void Engine::on_deactivate(const Production& production, std::span<const Wme* const> wmes) {
  conflict_set_.remove(production, wmes);
}

// ---------------------------------------------------------------------------
// RHS evaluation
// ---------------------------------------------------------------------------

Value Engine::eval(const Expr& expr, const BindingAnalysis& bindings) {
  counters_.rhs_cost += 1;
  if (const auto* lit = std::get_if<Value>(&expr.node)) return *lit;
  if (const auto* ref = std::get_if<VarRef>(&expr.node)) {
    for (const auto& [var, value] : firing_.bound) {
      if (var == ref->var) return value;
    }
    const auto site = bindings.site(ref->var);
    if (!site) throw std::logic_error("variable has no binding site");
    return firing_.values[firing_.offsets[site->positive_ce] + site->slot];
  }
  // Arguments go on the shared stack; a nested call pushes above them and
  // pops its own before returning.
  const auto& call = std::get<CallExpr>(expr.node);
  const std::size_t base = firing_.args.size();
  for (const auto& a : call.args) {
    const Value v = eval(a, bindings);
    firing_.args.push_back(v);
  }
  const Value result = call_function(
      call.function, std::span<const Value>(firing_.args).subspan(base, call.args.size()));
  firing_.args.resize(base);
  return result;
}

Value Engine::call_function(Symbol function, std::span<const Value> args) {
  if (externals_ != nullptr) {
    if (const ExternalFn* fn = externals_->find(function)) {
      ExternalContext ctx(counters_, user_data_);
      return (*fn)(args, ctx);
    }
  }
  // The arithmetic of (compute ...) is always available.
  const std::string& name = program_->symbols().name(function);
  const std::optional<ArithOp> op = arith_op(name);
  if (!op) throw std::logic_error("unknown external function: " + name);
  if (args.size() != 2 || !args[0].is_number() || !args[1].is_number()) {
    throw std::logic_error("builtin " + name + " needs two numeric arguments");
  }
  const std::optional<double> result = apply_arith(*op, args[0].number(), args[1].number());
  if (!result) throw std::domain_error("division by zero in " + name);
  return Value(*result);
}

void Engine::fire(const Production& production) {
  const BindingAnalysis& bindings = network_.compiled().bindings(production);
  // firing_.wmes holds the matched WMEs; a firing cut short by an exception
  // leaves the other buffers dirty, so each starts empty here.
  FiringBuffers& s = firing_;
  s.values.clear();
  s.offsets.clear();
  s.bound.clear();
  s.args.clear();
  for (const Wme* w : s.wmes) {
    s.offsets.push_back(static_cast<std::uint32_t>(s.values.size()));
    s.values.insert(s.values.end(), w->slots().begin(), w->slots().end());
  }
  ++counters_.firings;

  for (const auto& action : production.rhs()) {
    counters_.rhs_cost += util::cost::kRhsAction;
    std::visit(
        [&](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          if constexpr (std::is_same_v<T, MakeAction>) {
            ++counters_.rhs_actions;
            new_values_.assign(program_->wme_class(a.cls).arity(), Value{});
            for (const auto& [slot, expr] : a.sets) {
              const Value v = eval(expr, bindings);
              if (slot >= new_values_.size()) {
                throw std::out_of_range("make_wme: slot out of range");
              }
              new_values_[slot] = v;
            }
            add_wme(a.cls, new_values_);
          } else if constexpr (std::is_same_v<T, ModifyAction>) {
            ++counters_.rhs_actions;
            const Wme* target = s.wmes.at(a.ce_index - 1);
            if (target == nullptr) {
              throw std::logic_error("modify of a WME already removed in this firing");
            }
            const ClassIndex cls = target->class_index();
            new_values_.assign(target->slots().begin(), target->slots().end());
            for (const auto& [slot, expr] : a.sets) new_values_[slot] = eval(expr, bindings);
            remove_wme(*target);
            // The same WME may be matched at several CE positions.
            for (auto& slot_wme : s.wmes) {
              if (slot_wme == target) slot_wme = nullptr;
            }
            // The pool is LIFO: the replacement takes the removed WME's
            // storage, and so its address.
            const Wme& replacement = add_wme(cls, new_values_);
            s.wmes[a.ce_index - 1] = &replacement;
          } else if constexpr (std::is_same_v<T, RemoveAction>) {
            ++counters_.rhs_actions;
            const Wme* target = s.wmes.at(a.ce_index - 1);
            if (target == nullptr) {
              throw std::logic_error("remove of a WME already removed in this firing");
            }
            remove_wme(*target);
            for (auto& slot_wme : s.wmes) {
              if (slot_wme == target) slot_wme = nullptr;
            }
          } else if constexpr (std::is_same_v<T, BindAction>) {
            const Value v = eval(a.expr, bindings);
            const auto it = std::find_if(s.bound.begin(), s.bound.end(),
                                         [&](const auto& b) { return b.first == a.var; });
            if (it != s.bound.end()) {
              it->second = v;
            } else {
              s.bound.emplace_back(a.var, v);
            }
          } else if constexpr (std::is_same_v<T, WriteAction>) {
            ++counters_.rhs_actions;
            if (write_handler_) {
              std::ostringstream os;
              for (std::size_t i = 0; i < a.exprs.size(); ++i) {
                if (i) os << ' ';
                os << eval(a.exprs[i], bindings).to_string(program_->symbols());
              }
              write_handler_(os.str());
            } else {
              for (const auto& e : a.exprs) (void)eval(e, bindings);
            }
          } else if constexpr (std::is_same_v<T, HaltAction>) {
            halted_ = true;
          }
        },
        action);
    if (halted_) break;
  }
}

// ---------------------------------------------------------------------------
// The recognize-act cycle
// ---------------------------------------------------------------------------

bool Engine::step() {
  if (halted_) return false;

  // A detached tracer costs one pointer test; an attached one costs a clock
  // read only on sampled cycles (set_sample_every).
  const bool traced =
      tracer_ != nullptr && tracer_->should_sample(counters_.cycles);
  const auto span_begin =
      traced ? obs::Tracer::Clock::now() : obs::Tracer::Clock::time_point{};

  // Match: the network processed WM deltas eagerly; collect this cycle's
  // chunks (the work the match-parallelism model distributes). They sum to
  // the match cost charged since they were last taken, which the trace reads
  // off the counters: those hold it whether or not chunks are recorded.
  std::vector<util::WorkUnits> chunks = network_.take_chunks();
  [[maybe_unused]] const util::WorkUnits match_wu = counters_.match_cost - match_mark_;
  match_mark_ = counters_.match_cost;

  // Resolve: the ordered conflict set selects in O(log n); charge that.
  const util::WorkUnits resolve_cost =
      util::cost::kResolvePerInst *
      static_cast<util::WorkUnits>(1 + std::bit_width(conflict_set_.size() + 1));
  counters_.resolve_cost += resolve_cost;
  const Instantiation* winner = conflict_set_.select();
  if (winner == nullptr) {
    if (options_.record_cycles && !chunks.empty()) {
      CycleRecord rec;
      rec.match_chunks = std::move(chunks);
      rec.resolve_cost = resolve_cost;
      cycles_.push_back(std::move(rec));
    }
    return false;
  }

  // Act. Copy the winner's identity first: firing can retract the winning
  // instantiation itself (removing a matched WME destroys the entry).
  const Production& production = *winner->production;
  std::vector<const Wme*>& matched = firing_.wmes;
  matched.assign(winner->wmes.begin(), winner->wmes.end());
  if (undo_active_ && winner->seq < journal_seq_) {
    fired_log_.push_back({&production, winner->seq, fired_timetags_.size()});
    for (const Wme* w : matched) fired_timetags_.push_back(w->timetag());
  }
  if (watch_level_ >= 1) {
    std::string line = std::to_string(counters_.cycles + 1) + ". " +
                       program_->symbols().name(production.name());
    for (const Wme* w : matched) line += " " + std::to_string(w->timetag());
    watch_sink_(line);
  }
  const util::WorkUnits rhs_before = counters_.rhs_cost;
  fire(production);
  ++counters_.cycles;

  if (traced) {
    obs::json::Object args;
    args.emplace_back("cycle", obs::json::Value(counters_.cycles));
    args.emplace_back("production",
                      obs::json::Value(program_->symbols().name(production.name())));
    args.emplace_back("match_wu", obs::json::Value(match_wu));
    args.emplace_back("resolve_wu", obs::json::Value(resolve_cost));
    args.emplace_back("rhs_wu",
                      obs::json::Value(counters_.rhs_cost - rhs_before));
    args.emplace_back("conflict_set", obs::json::Value(conflict_set_.size()));
    args.emplace_back("wm_size", obs::json::Value(wm_.size()));
    tracer_->record_span("cycle", "engine", span_begin,
                         obs::Tracer::Clock::now(), tracer_tid_,
                         std::move(args));
  }

  if (options_.record_cycles) {
    CycleRecord rec;
    rec.match_chunks = std::move(chunks);
    rec.resolve_cost = resolve_cost;
    rec.rhs_cost = counters_.rhs_cost - rhs_before;
    cycles_.push_back(std::move(rec));
  }
  return true;
}

RunResult Engine::run() { return run(0); }

RunResult Engine::run(std::uint64_t cycle_budget) {
  // The budget is relative to the cycle count; saturate the sum, or a huge
  // budget would wrap into an immediate cutoff.
  const std::uint64_t room = std::numeric_limits<std::uint64_t>::max() - counters_.cycles;
  const std::uint64_t deadline =
      cycle_budget == 0 || cycle_budget > room
          ? options_.max_cycles
          : std::min(options_.max_cycles, counters_.cycles + cycle_budget);
  RunResult result;
  while (true) {
    if (counters_.cycles >= deadline) {
      result.cycle_limited = true;
      break;
    }
    if (!step()) break;
  }
  result.firings = counters_.firings;
  result.cycles = counters_.cycles;
  result.halted = halted_;
  return result;
}

// ---------------------------------------------------------------------------
// Undo log (abort recovery)
// ---------------------------------------------------------------------------

void Engine::begin_undo_log() {
  if (undo_active_) throw std::logic_error("undo log already active");
  undo_active_ = true;
  undo_log_.clear();
  undo_values_.clear();
  fired_log_.clear();
  fired_timetags_.clear();
  begin_mark_ = undo_checkpoint();
}

void Engine::commit_undo_log() noexcept {
  undo_active_ = false;
  undo_log_.clear();
  undo_values_.clear();
  fired_log_.clear();
  fired_timetags_.clear();
}

void Engine::replay_undo_tail(std::size_t down_to) {
  for (std::size_t i = undo_log_.size(); i > down_to; --i) {
    const UndoEntry& entry = undo_log_[i - 1];
    if (entry.was_add) {
      // Replaying in reverse guarantees the WME is live here: any later
      // removal of it was already undone.
      const std::size_t at = find_wme(entry.timetag);
      if (wm_[at] == nullptr) throw std::logic_error("undo log corrupt: added WME not live");
      ++counters_.wmes_removed;
      network_.remove_wme(wm_[at]->wme);
      erase_wme(at);
    } else {
      // Restore with the *original* timetag so recency ordering — and every
      // later conflict resolution — is unchanged by the aborted attempt. The
      // removal's values are the tail of undo_values_.
      const std::size_t arity = program_->wme_class(entry.cls).arity();
      const Wme& ref = insert_wme(
          entry.cls, std::span<const Value>(undo_values_).subspan(entry.values, arity),
          entry.timetag);
      undo_values_.resize(entry.values);
      ++counters_.wmes_added;
      network_.add_wme(ref);
    }
  }
  undo_log_.resize(down_to);
}

void Engine::rearm_fired_tail(std::size_t down_to, std::uint64_t seq_mark) {
  // After the replay, working memory is what it was at the mark. An
  // instantiation older than the mark whose WMEs were never removed is the
  // same object as then, still marked fired; one whose WMEs were removed
  // and restored was re-created unfired (new seq), and rearm() skips it.
  std::vector<const Wme*>& wmes = firing_.wmes;
  for (std::size_t i = fired_log_.size(); i > down_to; --i) {
    const FiredEntry& entry = fired_log_[i - 1];
    if (entry.seq < seq_mark) {
      wmes.clear();
      for (std::size_t t = entry.timetags; t < fired_timetags_.size(); ++t) {
        const WmSlot* live = wm_[find_wme(fired_timetags_[t])];
        if (live == nullptr) break;
        wmes.push_back(&live->wme);
      }
      if (wmes.size() == fired_timetags_.size() - entry.timetags) {
        conflict_set_.rearm(*entry.production, wmes, entry.seq);
      }
    }
    fired_timetags_.resize(entry.timetags);
  }
  fired_log_.resize(down_to);
}

void Engine::rollback_undo_log() {
  rollback_to_checkpoint(begin_mark_);
  undo_active_ = false;
}

Engine::UndoCheckpoint Engine::undo_checkpoint() {
  if (!undo_active_) throw std::logic_error("undo checkpoint requires an active undo log");
  UndoCheckpoint cp;
  cp.log_size = undo_log_.size();
  cp.fired_size = fired_log_.size();
  cp.conflict_seq = conflict_set_.next_seq();
  journal_seq_ = cp.conflict_seq;
  cp.timetag = next_timetag_;
  cp.halted = halted_;
  cp.cycles = counters_.cycles;
  return cp;
}

void Engine::rollback_to_checkpoint(const UndoCheckpoint& cp) {
  if (!undo_active_) throw std::logic_error("no undo log to roll back");
  if (cp.log_size > undo_log_.size()) {
    throw std::logic_error("undo checkpoint is ahead of the journal (stale checkpoint?)");
  }
  // The one replay path; rollback_undo_log() is this call at the begin mark.
  // Mutations below must not journal themselves, and watch output during
  // recovery would read as spurious WM churn.
  undo_active_ = false;
  const int saved_watch = watch_level_;
  watch_level_ = 0;

  replay_undo_tail(cp.log_size);
  rearm_fired_tail(cp.fired_size, cp.conflict_seq);
  next_timetag_ = cp.timetag;
  halted_ = cp.halted;
  // The cycle counter is the engine's observable logical clock: it numbers
  // watch-trace lines and anchors budget deadlines. Rewind it so a retry (or
  // the next resident task after a rolled-back one) sees the same clock the
  // aborted attempt saw — its trace comes out bit-identical. The remaining
  // WorkCounters stay monotonic: they meter real work done, and an aborted
  // attempt's match/RHS effort genuinely happened.
  counters_.cycles = cp.cycles;
  watch_level_ = saved_watch;
  undo_active_ = true;
  // Match work done while rolling back is recovery, not a cycle's chunks.
  (void)network_.take_chunks();
  match_mark_ = counters_.match_cost;
}

void Engine::reset(const std::function<void(Engine&)>& reload) {
  network_.clear();
  conflict_set_.clear();
  for (std::vector<WmSlot*>& members : class_wm_) members.clear();
  wm_.clear();
  wm_pool_.release_all();
  cycles_.clear();
  counters_ = util::WorkCounters{};
  match_mark_ = 0;
  next_timetag_ = 1;
  halted_ = false;
  undo_active_ = false;
  undo_log_.clear();
  undo_values_.clear();
  fired_log_.clear();
  fired_timetags_.clear();
  journal_seq_ = 0;
  peak_conflict_set_ = 0;
  // tracer_/tracer_tid_ deliberately survive, like the watch sink.
  if (!reload) return;
  // Reloading, like a rollback's replay, is not WM churn to trace.
  const int saved_watch = std::exchange(watch_level_, 0);
  try {
    reload(*this);
  } catch (...) {
    watch_level_ = saved_watch;
    throw;
  }
  watch_level_ = saved_watch;
}

}  // namespace psmsys::ops5
