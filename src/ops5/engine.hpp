#pragma once

// The OPS5 recognize-act interpreter — our analog of ParaOPS5's sequential
// core. Each PSM task process owns one Engine; the engine owns its Rete match
// state (over the rule base's shared compiled network), working memory, and
// conflict set, and exposes the instrumentation (work counters, per-cycle
// match chunks) the psm virtual-time models consume.

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ops5/conflict.hpp"
#include "ops5/external.hpp"
#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "rete/network.hpp"
#include "util/counters.hpp"
#include "util/open_table.hpp"
#include "util/pool.hpp"

namespace psmsys::obs {
class Tracer;
}

namespace psmsys::ops5 {

/// Construction-time engine configuration. This is the ONE place an engine
/// is configured: every knob is read at construction.
struct EngineConfig {
  Strategy strategy = Strategy::Lex;
  /// Safety valve against runaway rule bases.
  std::uint64_t max_cycles = 1'000'000;
  /// Record per-cycle match chunks and cost splits (needed by the
  /// match-parallelism model; adds memory proportional to cycles).
  bool record_cycles = false;
};

/// Per recognize-act cycle: the independently-schedulable match chunk costs
/// (what ParaOPS5 distributes over match processes) and the sequential
/// resolve + RHS costs.
struct CycleRecord {
  std::vector<util::WorkUnits> match_chunks;
  util::WorkUnits resolve_cost = 0;
  util::WorkUnits rhs_cost = 0;

  [[nodiscard]] util::WorkUnits match_cost() const noexcept {
    util::WorkUnits total = 0;
    for (auto c : match_chunks) total += c;
    return total;
  }
  [[nodiscard]] util::WorkUnits total_cost() const noexcept {
    return match_cost() + resolve_cost + rhs_cost;
  }
};

struct RunResult {
  std::uint64_t firings = 0;
  std::uint64_t cycles = 0;
  bool halted = false;        ///< stopped by (halt) rather than quiescence
  bool cycle_limited = false; ///< hit max_cycles
};

class Engine final : private rete::MatchListener {
 public:
  /// An engine over `network`, the compiled network of `program`, which it
  /// shares read-only with every other engine of the rule base. `externals`
  /// may be nullptr if the program uses no (call ...) expressions; it must
  /// outlive the engine.
  Engine(std::shared_ptr<const Program> program,
         std::shared_ptr<const rete::CompiledNetwork> network,
         const ExternalRegistry* externals, EngineConfig options = {});
  /// Compiles the frozen program's network for this engine alone.
  Engine(std::shared_ptr<const Program> program, const ExternalRegistry* externals,
         EngineConfig options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ------------------------------ working memory --------------------------

  /// Create a WME of `cls` with the given slot values (missing slots nil).
  /// Returns a reference valid until the WME is removed or reset() is
  /// called. Working memory is pooled: after that, the storage is reused,
  /// so a stale reference aliases a later WME instead of reading freed
  /// memory, and AddressSanitizer cannot catch it.
  const Wme& make_wme(ClassIndex cls, std::vector<std::pair<SlotIndex, Value>> sets);

  /// Convenience: class and attributes by name. Names must already be
  /// interned (the program is frozen).
  const Wme& make_wme(std::string_view class_name,
                      std::vector<std::pair<std::string_view, Value>> sets);

  void remove_wme(const Wme& wme);

  [[nodiscard]] std::size_t wm_size() const noexcept;

  /// All live WMEs of a class, in unspecified order. O(|class|): working
  /// memory keeps a per-class member list beside the timetag index, so the
  /// cost does not grow with the rest of working memory.
  [[nodiscard]] std::vector<const Wme*> wmes_of_class(ClassIndex cls) const;
  [[nodiscard]] std::vector<const Wme*> wmes_of_class(std::string_view class_name) const;

  // --------------------------------- running -------------------------------

  /// Run recognize-act cycles until quiescence, (halt), or max_cycles.
  RunResult run();

  /// Run at most `cycle_budget` further cycles (relative to the current
  /// cycle count; 0 = unlimited apart from max_cycles). Sets cycle_limited
  /// when the budget cuts the run off — the per-task deadline used by the
  /// robust executor to cut off livelocked tasks.
  RunResult run(std::uint64_t cycle_budget);

  /// Execute one cycle. Returns false if the conflict set offers nothing.
  bool step();

  /// Clear working memory, conflict set, counters, cycle records, and
  /// timetags. The compiled network is retained — this is what a PSM task
  /// process does between tasks.
  void reset();

  // ----------------------------- undo log ---------------------------------
  // Abort recovery for fault-tolerant task execution: journal every WM
  // mutation from begin_undo_log() on, then either commit (drop the
  // journal) or roll back. Rollback replays the journal in reverse through
  // the Rete network and restores removed WMEs *with their original
  // timetags* (and rewinds the timetag counter), so conflict-resolution
  // recency — and therefore every later firing — is bit-identical to a run
  // in which the aborted attempt never happened. Refraction is restored
  // too: an instantiation that existed at the mark and fired after it is
  // re-armed, because the journal also records such firings.

  /// Start journaling. Rejects nesting.
  void begin_undo_log();

  /// Keep the attempt's effects; discard the journal.
  void commit_undo_log() noexcept;

  /// Undo every journaled mutation (reverse order), rewind timetags, clear
  /// any halt raised during the attempt, re-arm instantiations that existed
  /// at begin_undo_log() and fired since, and drop pending match chunks:
  /// rollback_to_checkpoint() to the mark begin_undo_log() took, after which
  /// the log is inactive.
  void rollback_undo_log();

  [[nodiscard]] bool undo_log_active() const noexcept { return undo_active_; }

  /// A position in an ACTIVE undo log: everything journaled after the
  /// checkpoint can be undone alone (rollback_to_checkpoint), leaving the
  /// log active and earlier entries intact. This is the per-tick recovery
  /// unit of streaming sessions — a failed tick rolls back to its own
  /// checkpoint while the stream's accumulated working memory survives;
  /// whole-scene recovery stays rollback_undo_log(). Checkpoints are plain
  /// positions, not resources: taking one costs nothing and none need to be
  /// "released".
  struct UndoCheckpoint {
    std::size_t log_size = 0;     ///< journal entries at checkpoint time
    std::size_t fired_size = 0;   ///< fired-journal entries at checkpoint time
    std::uint64_t conflict_seq = 0;  ///< instantiations older than this existed
    TimeTag timetag = 1;          ///< next_timetag_ to rewind to
    bool halted = false;
    std::uint64_t cycles = 0;     ///< logical clock to rewind to
  };

  /// Snapshot the current undo-log position. Requires an active log. From
  /// here on the journal also records firings of the instantiations alive
  /// now, so a rollback to this checkpoint can re-arm them.
  [[nodiscard]] UndoCheckpoint undo_checkpoint();

  /// Undo every mutation journaled after `cp` (reverse order), truncate the
  /// journal back to it, and rewind timetags/halt/cycle clock to the
  /// checkpoint — with the same bit-identity guarantee as rollback_undo_log:
  /// recency ordering, refraction and the logical clock are exactly as if
  /// the rolled-back tail never ran. The undo log STAYS ACTIVE. A checkpoint
  /// taken after `cp` is invalidated by this call and must not be replayed to.
  void rollback_to_checkpoint(const UndoCheckpoint& cp);

  // ------------------------------ inspection ------------------------------

  [[nodiscard]] const Program& program() const noexcept { return *program_; }
  [[nodiscard]] const util::WorkCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::span<const CycleRecord> cycle_records() const noexcept { return cycles_; }
  /// The engine's Rete network: gauges and activation counters, and through
  /// compiled() the shape, topology and binding analyses.
  [[nodiscard]] const rete::Network& network() const noexcept { return network_; }
  [[nodiscard]] std::size_t conflict_set_size() const noexcept { return conflict_set_.size(); }

  /// Sink for (write ...) output; defaults to discarding. The string is one
  /// whole write action's output.
  void set_write_handler(std::function<void(const std::string&)> handler) {
    write_handler_ = std::move(handler);
  }

  /// Opaque pointer surfaced to external functions via ExternalContext.
  void set_user_data(void* p) noexcept { user_data_ = p; }

  /// OPS5-style watch tracing: level 0 = off, 1 = production firings,
  /// 2 = firings plus working-memory changes. Lines go to `sink`.
  void set_watch(int level, std::function<void(const std::string&)> sink);
  [[nodiscard]] int watch_level() const noexcept { return watch_level_; }

  /// Attach a span tracer (nullptr detaches). Fired cycles emit sampled
  /// "cycle" spans on thread lane `tid` (the executor passes its task-process
  /// index) with the cycle's match/resolve/RHS work-unit split in args. A
  /// detached engine never touches the clock. The tracer must outlive its
  /// attachment and is not owned. Survives reset(), like the watch sink.
  void set_tracer(obs::Tracer* tracer, std::uint32_t tid = 0) noexcept {
    tracer_ = tracer;
    tracer_tid_ = tid;
  }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Largest conflict set observed since construction or reset() — the
  /// contention gauge behind the paper's conflict-resolution discussion.
  [[nodiscard]] std::size_t peak_conflict_set() const noexcept {
    return peak_conflict_set_;
  }

 private:
  void on_activate(const Production& production, std::span<const Wme* const> wmes) override;
  void on_deactivate(const Production& production, std::span<const Wme* const> wmes) override;

  /// Fire `production` on the WMEs in firing_.wmes.
  void fire(const Production& production);
  [[nodiscard]] Value eval(const Expr& expr, const BindingAnalysis& bindings);
  [[nodiscard]] Value call_function(Symbol function, std::span<const Value> args);

  std::shared_ptr<const Program> program_;
  const ExternalRegistry* externals_;
  EngineConfig options_;
  /// Reverse-replay journal entries [down_to, end) and truncate to down_to.
  /// Callers own undo_active_/watch suppression and the mark restoration.
  void replay_undo_tail(std::size_t down_to);
  /// Re-arm the journaled firings [down_to, end) of instantiations older
  /// than `seq_mark` that survived the replay; truncate to down_to.
  void rearm_fired_tail(std::size_t down_to, std::uint64_t seq_mark);

  util::WorkCounters counters_;
  ConflictSet conflict_set_{options_.strategy};
  rete::Network network_;
  std::vector<CycleRecord> cycles_;
  /// counters_.match_cost when the matcher's chunks were last taken: the
  /// cycle's match cost for tracing, whether or not chunks are recorded.
  util::WorkUnits match_mark_ = 0;

  // Working memory: WMEs live in pooled slots (stable addresses, values
  // stored inline), found by timetag through an open-addressed table and
  // listed per class. Each slot knows its position in its class list, so
  // removal is a swap-with-back there. A removed slot goes back to the pool,
  // so the next WME (a modify's replacement, most often) reuses it without
  // allocating.
  struct WmSlot {
    Wme wme{0, kNilSymbol, {}, 0};
    std::uint32_t class_pos = 0;
  };
  struct TimetagHash {
    [[nodiscard]] std::uint64_t operator()(const WmSlot& slot) const noexcept {
      return util::mix_bits(slot.wme.timetag());
    }
  };
  /// Position in wm_ of the WME with `tag`, or of the empty slot its probe
  /// run ends at.
  [[nodiscard]] std::size_t find_wme(TimeTag tag) const;
  const Wme& insert_wme(ClassIndex cls, std::span<const Value> values, TimeTag tag);
  void erase_wme(std::size_t at);
  /// make_wme()'s tail: a new WME with the next timetag, journaled, traced
  /// and matched.
  const Wme& add_wme(ClassIndex cls, std::span<const Value> values);
  util::Pool<WmSlot> wm_pool_;
  std::vector<std::vector<WmSlot*>> class_wm_;  ///< live slots of each class
  util::OpenTable<WmSlot, TimetagHash> wm_;
  /// The slot values of the WME being made, by make_wme() or an RHS make
  /// or modify, built before it is inserted.
  std::vector<Value> new_values_;
  TimeTag next_timetag_ = 1;
  bool halted_ = false;

  /// Buffers every firing reuses, so a steady-state firing allocates
  /// nothing. Firings never nest, and the network's delta guard rejects a
  /// WM change from inside match propagation.
  struct FiringBuffers {
    /// The live WME of each positive CE; modify and remove update it.
    /// Rollback's re-arm reuses it, outside any firing.
    std::vector<const Wme*> wmes;
    /// The matched WMEs' slot values, snapshotted at fire start: OPS5
    /// variable bindings are fixed at match time, and earlier actions of the
    /// firing may remove those WMEs (and their storage may be reused).
    std::vector<Value> values;
    std::vector<std::uint32_t> offsets;  ///< start of each CE's values
    std::vector<std::pair<VariableId, Value>> bound;  ///< (bind ...) results
    std::vector<Value> args;  ///< argument stack of (call ...) and (compute ...)
  };
  FiringBuffers firing_;

  // The undo journal is flat: entries plus one buffer of the slot values of
  // journaled removals, both truncated on rollback and cleared on commit.
  struct UndoEntry {
    TimeTag timetag = 0;
    std::size_t values = 0;  ///< removals: offset of the slot values in undo_values_
    ClassIndex cls = 0;      ///< removals only
    bool was_add = false;    ///< true: WME added; false: WME removed
  };
  bool undo_active_ = false;
  std::vector<UndoEntry> undo_log_;
  std::vector<Value> undo_values_;
  UndoCheckpoint begin_mark_;  ///< begin_undo_log()'s mark: both journals empty

  /// A firing, under an active undo log, of an instantiation older than the
  /// latest mark (begin_undo_log or undo_checkpoint). Instantiations created
  /// after a mark never outlive a rollback to it, so only these can need
  /// re-arming; `seq` tells the surviving object from a re-created one. The
  /// WMEs are kept as timetags, in fired_timetags_ from `timetags` up to the
  /// next entry's: the firing may remove them.
  struct FiredEntry {
    const Production* production = nullptr;
    std::uint64_t seq = 0;
    std::size_t timetags = 0;
  };
  std::vector<FiredEntry> fired_log_;
  std::vector<TimeTag> fired_timetags_;
  std::uint64_t journal_seq_ = 0;  ///< journal firings of instantiations below this

  std::function<void(const std::string&)> write_handler_;
  void* user_data_ = nullptr;
  int watch_level_ = 0;
  std::function<void(const std::string&)> watch_sink_;

  // Observability: the tracer attachment and the conflict-set gauge.
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t tracer_tid_ = 0;
  std::size_t peak_conflict_set_ = 0;
};

}  // namespace psmsys::ops5
