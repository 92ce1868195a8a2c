#include "rete/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs_config.hpp"
#include "util/open_table.hpp"
#include "util/pool.hpp"
#include "util/small_vec.hpp"

// Hot-path layout (this file's three structural commitments):
//
//  * O(1) retraction — every membership (alpha-memory item, beta-store token,
//    index-bucket entry, token-tree child, negative join result) carries its
//    position in the owning vector, and removal is swap-with-back at that
//    position with a back-pointer fix-up of the element that moved. This is
//    the same swap erase_one() performed after its linear find, so container
//    orders — and therefore listener callback orders — are unchanged; only
//    the per-retract O(n) scans are gone.
//
//  * Left/right node unlinking (Doorenbos) — a join whose beta store is empty
//    skips right activations, a join whose alpha memory is empty skips left
//    activations. Successor lists stay in compile order and carry flags
//    (splicing the lists would reorder activations); the item/token lists are
//    always maintained, so a flag flips exactly on an empty<->nonempty
//    transition of the opposite input and no both-unlinked deadlock exists.
//    Hash indexes live on the *memories*, not the joins — one right index per
//    distinct key slot on each alpha memory, one left index per distinct
//    (levels_up, token_slot) key spec on each beta store — and are always
//    maintained incrementally, so same-keyed successors share upkeep, a link
//    transition is a flag flip (no index rebuild to thrash on empty<->nonempty
//    oscillation), and bucket orders — hence candidate orders and firing
//    logs — never depend on link state. An unlinked successor skips its
//    activations and its index-upkeep *charges*; the shared physical insert
//    still happens, amortized across all users of the slot. Negative nodes
//    only right-unlink — an empty alpha memory means the absence test holds
//    and left activations must still create tokens.
//
//  * Pooled, inline memory — tokens, negative join results and WME records
//    live in util::Pool chunks and recycle through their LIFO free lists;
//    their membership lists are util::SmallVec arrays whose common lengths
//    fit inline, so destroying a network frees chunks, not objects. A record
//    reads its WME's slot values through one unchecked pointer, and each
//    add/remove performs a single pointer->record hash lookup (the record is
//    threaded through propagation). Index buckets recycle through their own
//    capacity-preserving pools.

namespace psmsys::rete {

namespace {

using ops5::ClassIndex;
using ops5::Predicate;
using ops5::SlotIndex;
using ops5::Value;
using ops5::Wme;

// ---------------------------------------------------------------------------
// Network data structures
// ---------------------------------------------------------------------------

struct AlphaMemory;
struct JoinNode;
struct BetaNode;
struct WmeRecord;
struct Token;

struct NegJoinResult {
  Token* owner = nullptr;
  WmeRecord* wrec = nullptr;
  std::uint32_t pos_in_owner = 0;  ///< position in owner->join_results
  std::uint32_t pos_in_wrec = 0;   ///< position in wrec->neg_results
};

// Inline capacities of the token and record lists, chosen from the lengths
// these lists reach on the SF, DC and MOFF scenes (DESIGN §22.4): each
// covers nearly every list, and every array but alpha_mems stays within
// std::vector's 24 bytes. A longer list spills to the heap and keeps its
// spill when the pooled object is recycled.
constexpr std::uint32_t kInlineChildren = 2;     ///< token children, record tokens
constexpr std::uint32_t kInlineJoinResults = 1;  ///< a token's or a record's join results
constexpr std::uint32_t kInlinePositions = 2;    ///< left_pos, right_pos
constexpr std::uint32_t kInlineAlphaMems = 2;

struct Token {
  Token* parent = nullptr;
  const Wme* wme = nullptr;  // null for the dummy token and neg-after-neg tokens
  WmeRecord* wrec = nullptr;  // record of `wme`, null iff wme is null
  BetaNode* node = nullptr;
  util::SmallVec<Token*, kInlineChildren> children;
  /// Only for tokens owned by negative nodes.
  util::SmallVec<NegJoinResult*, kInlineJoinResults> join_results;
  std::uint32_t pos_in_node = 0;    ///< position in node->tokens
  std::uint32_t pos_in_parent = 0;  ///< position in parent->children
  std::uint32_t pos_in_wrec = 0;    ///< position in wrec->tokens
  /// Left-index bucket positions: one slot per shared left index of the
  /// owning memory node ([0] for a negative node's own left index).
  util::SmallVec<std::uint32_t, kInlinePositions> left_pos;
};

/// Side record per live WME: its slot values plus every membership the WME
/// holds, with enough position state to undo all of them in O(1) each.
struct WmeRecord {
  const Wme* wme = nullptr;
  /// wme->slots().data(): the WME outlives its record, and its values never
  /// move.
  const Value* vals = nullptr;
  struct AmRef {
    AlphaMemory* am = nullptr;
    std::uint32_t item_pos = 0;    ///< position in am->items
    std::uint32_t right_base = 0;  ///< start of this membership's right_pos span
  };
  util::SmallVec<AmRef, kInlineAlphaMems> alpha_mems;
  /// Right-index bucket positions: per alpha-memory membership, one slot per
  /// shared right index of that memory (at alpha_mems[i].right_base + the
  /// index ordinal).
  util::SmallVec<std::uint32_t, kInlinePositions> right_pos;
  util::SmallVec<Token*, kInlineChildren> tokens;
  util::SmallVec<NegJoinResult*, kInlineJoinResults> neg_results;
};

// Pooling must not make the objects bigger than their std::vector versions
// were (120 and 128 bytes).
static_assert(sizeof(Token) <= 120);
static_assert(sizeof(WmeRecord) <= 128);

/// Hash of a record's WME pointer: the key of the network's WME index.
[[nodiscard]] inline std::uint64_t wme_hash(const Wme* w) noexcept {
  return util::mix_bits(reinterpret_cast<std::uintptr_t>(w));
}

struct WmeRecordHash {
  [[nodiscard]] std::uint64_t operator()(const WmeRecord& r) const noexcept {
    return wme_hash(r.wme);
  }
};

[[nodiscard]] inline const Value& rec_slot(const WmeRecord& r, SlotIndex i) noexcept {
  assert(i < r.wme->slots().size());
  return r.vals[i];
}

/// One constant test in the alpha network.
struct ConstTest {
  SlotIndex slot = 0;
  Predicate pred = Predicate::Eq;
  Value value;
  [[nodiscard]] bool operator==(const ConstTest&) const = default;
};

/// Intra-CE variable test: wme.slot PRED wme.other_slot.
struct IntraTest {
  SlotIndex slot = 0;
  Predicate pred = Predicate::Eq;
  SlotIndex other_slot = 0;
  [[nodiscard]] bool operator==(const IntraTest&) const = default;
};

/// OPS5 value disjunction: wme.slot must equal one of `values`.
struct DisjTest {
  SlotIndex slot = 0;
  std::vector<Value> values;
  [[nodiscard]] bool operator==(const DisjTest&) const = default;
};

/// Join test: wme.wme_slot PRED chain-wme(levels_up).token_slot.
struct JoinTest {
  SlotIndex wme_slot = 0;
  Predicate pred = Predicate::Eq;
  std::uint32_t levels_up = 0;
  SlotIndex token_slot = 0;
  [[nodiscard]] bool operator==(const JoinTest&) const = default;
};

struct AmItem {
  WmeRecord* rec = nullptr;
  std::uint32_t am_slot = 0;  ///< index of this membership in rec->alpha_mems
};

struct RightEntry {
  WmeRecord* rec = nullptr;
  std::uint32_t pos_slot = 0;  ///< absolute index into rec->right_pos
};

using RightIndex = std::unordered_map<Value, std::vector<RightEntry>, ops5::ValueHash>;
using LeftIndex = std::unordered_map<Value, std::vector<Token*>, ops5::ValueHash>;

struct AlphaMemory {
  std::vector<AmItem> items;
  std::vector<JoinNode*> join_successors;
  std::vector<BetaNode*> negative_successors;
  /// Shared right indexes, one per distinct WME key slot among the indexed
  /// successors (finalize_links). Always maintained; right_pos spans are
  /// index_slots.size() wide.
  std::vector<SlotIndex> index_slots;
  std::vector<RightIndex> right_indexes;
};

struct AlphaPattern {
  ClassIndex cls = 0;
  std::vector<ConstTest> const_tests;
  std::vector<IntraTest> intra_tests;
  std::vector<DisjTest> disj_tests;
  AlphaMemory* memory = nullptr;
  // Topology export (analysis/rete_static): creation-order id and the
  // productions whose CEs compiled into this pattern.
  std::uint32_t topo_id = 0;
  std::vector<std::uint32_t> users;
};

enum class BetaKind : std::uint8_t { Memory, Negative, Production };

struct BetaNode {
  BetaKind kind = BetaKind::Memory;
  std::vector<Token*> tokens;

  // Negative nodes only:
  AlphaMemory* amem = nullptr;
  std::vector<JoinTest> tests;
  // Hashed memories for negative nodes, symmetric with JoinNode. The right
  // side probes the amem's shared index at right_ord; the left index over the
  // node's own tokens stays private (nothing else keys them).
  int index_test = -1;
  LeftIndex left_index;
  /// Negative nodes right-unlink while they hold no tokens (no left unlink:
  /// absence semantics require left activations even with an empty amem).
  bool right_linked = true;
  std::uint32_t right_ord = 0;  ///< amem shared-index ordinal (index_slots)

  // Token stores (Memory / Negative): downstream consumers.
  std::vector<JoinNode*> join_children;
  std::vector<BetaNode*> left_children;  // NEG->NEG, NEG->P chains
  /// Shared left indexes over this store's tokens, one per distinct
  /// (levels_up, token_slot) key spec among indexed join children
  /// (finalize_links). Always maintained; member tokens' left_pos spans are
  /// left_specs.size() wide.
  struct LeftSpec {
    std::uint32_t levels_up = 0;
    SlotIndex token_slot = 0;
  };
  std::vector<LeftSpec> left_specs;
  std::vector<LeftIndex> left_indexes;

  // Production nodes only:
  const ops5::Production* production = nullptr;

  // Topology export, Negative kind only: shared id space with JoinNode.
  std::uint32_t topo_id = 0;
  std::uint32_t topo_alpha = 0;
  std::uint32_t topo_depth = 0;
  std::vector<std::uint32_t> users;
};

struct JoinNode {
  BetaNode* parent = nullptr;  // token store
  AlphaMemory* amem = nullptr;
  std::vector<JoinTest> tests;
  std::vector<BetaNode*> children;

  // Hashed-memory optimization (ParaOPS5): when the join has an equality
  // test and its parent is a plain memory, both sides are indexed by that
  // test's value so an activation probes only matching candidates. The
  // physical indexes are shared on the memories; this node holds ordinals.
  int index_test = -1;  // -1: unindexed (scan)

  /// Unlink flags: right_linked mirrors parent->tokens non-emptiness,
  /// left_linked mirrors amem->items non-emptiness. Flags gate activations
  /// and index-upkeep charges only — the shared indexes are maintained
  /// regardless.
  bool right_linked = true;
  bool left_linked = true;
  std::uint32_t right_ord = 0;  ///< amem shared-index ordinal (index_slots)
  std::uint32_t left_ord = 0;   ///< parent shared-index ordinal (left_specs)

  // Topology export: shared id space with negative BetaNodes.
  std::uint32_t topo_id = 0;
  std::uint32_t topo_alpha = 0;
  std::uint32_t topo_depth = 0;
  std::vector<std::uint32_t> users;
};

/// Swap-with-back removal at a known position in a std::vector or a
/// util::SmallVec; `reposition` receives the element that moved into `pos` (a
/// no-op self-assignment when `pos` was the back). Exactly the container
/// mutation erase_one() used to perform, minus its linear find.
template <typename Vec, typename Reposition>
void swap_erase(Vec& v, std::uint32_t pos, Reposition reposition) {
  assert(pos < v.size());
  v[pos] = v.back();
  reposition(v[pos], pos);
  v.pop_back();
}

[[nodiscard]] const WmeRecord* wme_up(const Token* t, std::uint32_t levels_up) noexcept {
  const Token* cur = t;
  for (std::uint32_t i = 0; i < levels_up; ++i) cur = cur->parent;
  return cur->wrec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct Network::Impl {
  const ops5::Program& program;
  MatchListener& listener;
  util::WorkCounters& counters;
  util::CostModel costs;
  NetworkOptions options;

  // Ownership pools (stable addresses). Nodes are created at compile time
  // and never released, so their pools are append-only arenas iterated in
  // creation order; tokens, records, and join results churn at match time
  // and recycle through their pools' free lists with their lists' capacity
  // intact.
  util::Pool<AlphaPattern> patterns;
  util::Pool<AlphaMemory> alpha_memories;
  util::Pool<BetaNode> beta_nodes;
  util::Pool<JoinNode> join_nodes;

  util::Pool<Token> tokens;
  util::Pool<NegJoinResult> join_results;
  util::Pool<WmeRecord> records;

  // Index-bucket pools: emptied buckets keep their heap blocks and are handed
  // back out when an index gains a fresh key (or is rebuilt after a relink).
  std::vector<std::vector<RightEntry>> right_bucket_pool;
  std::vector<std::vector<Token*>> left_bucket_pool;

  /// Hashed alpha dispatch for one WME class (Doorenbos' hashed alpha
  /// network). `patterns` is the class's dispatch list in compile order.
  /// A pattern whose first constant test is an equality can only pass for
  /// WMEs carrying that (slot, value), so it sits in that bucket;
  /// every other pattern is unbucketed and visited by every WME of the
  /// class. A pattern whose first test equals NaN can never pass and sits
  /// nowhere. Positions are ascending within every list.
  struct ClassDispatch {
    std::vector<AlphaPattern*> patterns;
    std::vector<std::uint32_t> unbucketed;
    struct SlotBuckets {
      SlotIndex slot = 0;
      std::unordered_map<Value, std::vector<std::uint32_t>, ops5::ValueHash> buckets;
    };
    std::vector<SlotBuckets> slots;
  };
  std::vector<ClassDispatch> dispatch;
  /// The pattern positions an add visits; kept to reuse its capacity.
  std::vector<std::uint32_t> visit;

  /// The single pointer->record lookup per add/remove; all interior paths
  /// thread WmeRecord* instead of re-hashing the Wme pointer.
  util::OpenTable<WmeRecord, WmeRecordHash> wme_index;
  /// Index slot of `w`'s record, or the empty slot its probe run ends at.
  [[nodiscard]] std::size_t find_record(const Wme* w) const {
    return wme_index.find_slot(wme_hash(w), [w](const WmeRecord& r) { return r.wme == w; });
  }

  BetaNode* dummy_store = nullptr;
  Token* dummy_token = nullptr;

  /// Deferred-mutation guard: activations iterate memories and index buckets
  /// by reference, which is sound because propagation never re-enters the WM
  /// delta entry points. This flag turns an accidental re-entry (a listener
  /// calling back into add/remove/clear) into an immediate logic_error
  /// instead of silent iterator invalidation.
  bool in_delta = false;

  BindingTable bindings;

  // Topology export: creation-order id counter shared by joins and negative
  // nodes, plus the per-production beta chain recorded during compile().
  std::uint32_t next_join_id = 0;
  std::vector<NetworkTopology::ProductionPath> paths;

  std::vector<util::WorkUnits> chunks;

  /// wmes_of()'s output, reused by every production-node callback: the
  /// listener's span is valid only during the call.
  std::vector<const Wme*> matched;

  // Live/peak token gauge (PSMSYS_OBS only): tokens_created/deleted count
  // churn, this tracks the instantaneous working set.
  std::uint64_t live_tokens = 0;
  std::uint64_t peak_live_tokens = 0;

  // Per-node activation counters (PSMSYS_OBS only), indexed by the topology
  // ids. Lifetime gauges like the peak above: clear() retains them so a whole
  // run's measured traffic can calibrate the static cost model. Activations
  // skipped at unlinked nodes are not counted — quiescent productions
  // legitimately read zero.
  std::vector<std::uint64_t> alpha_acts;
  std::vector<std::uint64_t> join_acts;

  Impl(const ops5::Program& prog, MatchListener& lst, util::WorkCounters& ctr,
       const util::CostModel& cm, const NetworkOptions& opt)
      : program(prog), listener(lst), counters(ctr), costs(cm), options(opt) {}

  struct DeltaGuard {
    bool& flag;
    explicit DeltaGuard(bool& f) : flag(f) {
      if (flag) throw std::logic_error("re-entrant WME mutation during match propagation");
      flag = true;
    }
    ~DeltaGuard() { flag = false; }
    DeltaGuard(const DeltaGuard&) = delete;
    DeltaGuard& operator=(const DeltaGuard&) = delete;
  };

  // ------------------------------- allocation -----------------------------

  Token* new_token(Token* parent, const Wme* wme, WmeRecord* wrec, BetaNode* node) {
    Token* t = tokens.acquire();
    t->children.clear();  // clear, don't reassign: keep any spill
    t->join_results.clear();
    t->left_pos.clear();
    t->parent = parent;
    t->wme = wme;
    t->wrec = wrec;
    t->node = node;
    if (parent != nullptr) {
      t->pos_in_parent = static_cast<std::uint32_t>(parent->children.size());
      parent->children.push_back(t);
    }
    if (wrec != nullptr) {
      t->pos_in_wrec = static_cast<std::uint32_t>(wrec->tokens.size());
      wrec->tokens.push_back(t);
    }
    ++counters.tokens_created;
    counters.match_cost += costs.token_op;
#if PSMSYS_OBS
    if (++live_tokens > peak_live_tokens) peak_live_tokens = live_tokens;
#endif
    return t;
  }

  void charge_token_free() {
    ++counters.tokens_deleted;
    counters.match_cost += costs.token_op;
#if PSMSYS_OBS
    --live_tokens;
#endif
  }

  void free_token(Token* t) {
    charge_token_free();
    tokens.release(t);
  }

  /// Allocates a join result and registers it with both its owner token and
  /// the blocking WME's record (positions recorded for O(1) unlink).
  NegJoinResult* new_jr(Token* owner, WmeRecord* wrec) {
    NegJoinResult* jr = join_results.acquire();
    jr->owner = owner;
    jr->wrec = wrec;
    jr->pos_in_owner = static_cast<std::uint32_t>(owner->join_results.size());
    owner->join_results.push_back(jr);
    jr->pos_in_wrec = static_cast<std::uint32_t>(wrec->neg_results.size());
    wrec->neg_results.push_back(jr);
    counters.match_cost += costs.negative_op;
    return jr;
  }

  void free_jr(NegJoinResult* jr) {
    counters.match_cost += costs.negative_op;
    join_results.release(jr);
  }

  WmeRecord* make_record(const Wme& w) {
    const std::span<const Value> vals = w.slots();
    // Match tests read slots unchecked, up to the class's arity.
    if (w.class_index() < program.class_count() &&
        vals.size() != program.wme_class(w.class_index()).arity()) {
      throw std::logic_error("WME arity differs from its class");
    }
    WmeRecord* rec = records.acquire();
    rec->wme = &w;
    rec->vals = vals.data();
    return rec;
  }

  void recycle_record(WmeRecord* rec) {
    rec->wme = nullptr;
    rec->vals = nullptr;
    rec->alpha_mems.clear();
    rec->right_pos.clear();
    rec->tokens.clear();
    rec->neg_results.clear();
    records.release(rec);
  }

  // -------------------------- index bucket pooling ------------------------

  template <typename Map, typename Pool>
  [[nodiscard]] auto& bucket_of(Map& index, Pool& pool, const Value& key) {
    const auto [it, inserted] = index.try_emplace(key);
    if (inserted && !pool.empty()) {
      it->second = std::move(pool.back());
      pool.pop_back();
    }
    return it->second;
  }

  void release_index(RightIndex& index) {
    for (auto& entry : index) {
      entry.second.clear();
      right_bucket_pool.push_back(std::move(entry.second));
    }
    index.clear();
  }

  void release_index(LeftIndex& index) {
    for (auto& entry : index) {
      entry.second.clear();
      left_bucket_pool.push_back(std::move(entry.second));
    }
    index.clear();
  }

  // ------------------------------- matching -------------------------------

  [[nodiscard]] bool alpha_passes(const AlphaPattern& p, const WmeRecord& w) {
    for (const auto& t : p.const_tests) {
      ++counters.alpha_tests;
      counters.match_cost += costs.alpha_test;
      if (!apply_predicate(t.pred, rec_slot(w, t.slot), t.value)) return false;
    }
    for (const auto& t : p.intra_tests) {
      ++counters.alpha_tests;
      counters.match_cost += costs.alpha_test;
      if (!apply_predicate(t.pred, rec_slot(w, t.slot), rec_slot(w, t.other_slot))) return false;
    }
    for (const auto& t : p.disj_tests) {
      ++counters.alpha_tests;
      counters.match_cost += costs.alpha_test * static_cast<util::WorkUnits>(t.values.size());
      bool any = false;
      for (const auto& v : t.values) {
        if (rec_slot(w, t.slot) == v) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  }

  [[nodiscard]] bool join_passes(std::span<const JoinTest> tests, const Token* t,
                                 const WmeRecord& w) {
    ++counters.join_probes;
    counters.match_cost += costs.join_probe +
                           costs.join_test * static_cast<util::WorkUnits>(tests.size());
    for (const auto& test : tests) {
      const WmeRecord* bound = wme_up(t, test.levels_up);
      assert(bound != nullptr);
      if (!apply_predicate(test.pred, rec_slot(w, test.wme_slot),
                           rec_slot(*bound, test.token_slot))) {
        return false;
      }
    }
    return true;
  }

  // ------------------------- hashed join memories -------------------------

  [[nodiscard]] static const Value& token_key(const JoinNode& j, const Token* t) {
    const JoinTest& test = j.tests[static_cast<std::size_t>(j.index_test)];
    return rec_slot(*wme_up(t, test.levels_up), test.token_slot);
  }

  [[nodiscard]] static const Value& wme_key(const JoinNode& j, const WmeRecord& w) {
    const JoinTest& test = j.tests[static_cast<std::size_t>(j.index_test)];
    return rec_slot(w, test.wme_slot);
  }

  [[nodiscard]] static const Value& neg_left_key(const BetaNode& neg, const Token* t) {
    const JoinTest& key = neg.tests[static_cast<std::size_t>(neg.index_test)];
    return rec_slot(*wme_up(t, key.levels_up), key.token_slot);
  }

  /// Physical upkeep of a store's shared left indexes (uncharged: the
  /// per-successor join_test charges are levied by the caller per *linked*
  /// indexed child, preserving the cost model's per-successor accounting).
  void index_token(BetaNode& store, Token* t) {
    for (std::uint32_t ord = 0; ord < store.left_specs.size(); ++ord) {
      const BetaNode::LeftSpec& spec = store.left_specs[ord];
      auto& bucket = bucket_of(store.left_indexes[ord], left_bucket_pool,
                               rec_slot(*wme_up(t, spec.levels_up), spec.token_slot));
      t->left_pos[ord] = static_cast<std::uint32_t>(bucket.size());
      bucket.push_back(t);
    }
  }

  void unindex_token(BetaNode& store, Token* t) {
    for (std::uint32_t ord = 0; ord < store.left_specs.size(); ++ord) {
      const BetaNode::LeftSpec& spec = store.left_specs[ord];
      swap_erase(store.left_indexes[ord].at(
                     rec_slot(*wme_up(t, spec.levels_up), spec.token_slot)),
                 t->left_pos[ord],
                 [ord](Token* moved, std::uint32_t p) { moved->left_pos[ord] = p; });
    }
  }

  // ------------------------- unlink transitions ---------------------------
  //
  // Pure flag flips: the shared indexes are always maintained, so a link
  // transition costs O(successors) pointer writes — oscillating a memory
  // between empty and nonempty (streaming retraction churn) never rebuilds
  // anything.

  /// amem just went empty -> nonempty: successor joins resume left
  /// activations (negatives never left-unlink).
  static void left_relink_successors(AlphaMemory& am) {
    for (JoinNode* j : am.join_successors) j->left_linked = true;
  }

  /// amem just went nonempty -> empty: successor joins stop left activations.
  static void left_unlink_successors(AlphaMemory& am) {
    for (JoinNode* j : am.join_successors) j->left_linked = false;
  }

  /// `store` just gained its first token: child joins (and the store itself,
  /// when negative) resume right activations.
  static void right_relink_children(BetaNode& store) {
    for (JoinNode* j : store.join_children) j->right_linked = true;
    if (store.kind == BetaKind::Negative) store.right_linked = true;
  }

  /// `store` just lost its last token: child joins (and the store itself,
  /// when negative) stop right activations.
  static void right_unlink_children(BetaNode& store) {
    for (JoinNode* j : store.join_children) j->right_linked = false;
    if (store.kind == BetaKind::Negative) store.right_linked = false;
  }

  // ------------------------------ activation ------------------------------

  void left_activate(BetaNode& node, Token* parent, const Wme* wme, WmeRecord* wrec) {
    switch (node.kind) {
      case BetaKind::Memory: {
        Token* t = new_token(parent, wme, wrec, &node);
        t->left_pos.resize(node.left_specs.size());
        t->pos_in_node = static_cast<std::uint32_t>(node.tokens.size());
        node.tokens.push_back(t);
        if (node.tokens.size() == 1) right_relink_children(node);
        index_token(node, t);
        for (JoinNode* j : node.join_children) {
          if (j->index_test >= 0 && j->left_linked) {
            counters.match_cost += costs.join_test;  // per-successor index upkeep
          }
        }
        for (JoinNode* j : node.join_children) {
          if (j->left_linked) join_left_activate(*j, t);
        }
        break;
      }
      case BetaKind::Negative: {
#if PSMSYS_OBS
        ++join_acts[node.topo_id];
#endif
        Token* t = new_token(parent, wme, wrec, &node);
        t->pos_in_node = static_cast<std::uint32_t>(node.tokens.size());
        node.tokens.push_back(t);
        if (node.tokens.size() == 1) right_relink_children(node);
        // Compute blockers against the negative CE's alpha memory. Indexed
        // candidates come straight from the shared right-index bucket — no
        // snapshot copy: propagation cannot mutate the bucket (see the
        // in_delta guard).
        if (node.index_test >= 0) {
          counters.match_cost += costs.join_test;
          auto& left_bucket = bucket_of(node.left_index, left_bucket_pool, neg_left_key(node, t));
          t->left_pos.assign(1, static_cast<std::uint32_t>(left_bucket.size()));
          left_bucket.push_back(t);
          const RightIndex& right = node.amem->right_indexes[node.right_ord];
          const auto it = right.find(neg_left_key(node, t));
          if (it != right.end()) {
            for (const RightEntry& e : it->second) {
              if (join_passes(node.tests, t, *e.rec)) new_jr(t, e.rec);
            }
          }
        } else {
          for (const AmItem& e : node.amem->items) {
            if (join_passes(node.tests, t, *e.rec)) new_jr(t, e.rec);
          }
        }
        if (t->join_results.empty()) emit_from_store(node, t);
        break;
      }
      case BetaKind::Production: {
        Token* t = new_token(parent, wme, wrec, &node);
        t->pos_in_node = static_cast<std::uint32_t>(node.tokens.size());
        node.tokens.push_back(t);
        counters.match_cost += costs.conflict_set_op;
        listener.on_activate(*node.production, wmes_of(t));
        break;
      }
    }
  }

  /// Propagate a store token downstream (new BM token is handled inside
  /// Memory's case; this is for negative-node unblocking and NEG chains).
  void emit_from_store(BetaNode& store, Token* t) {
    for (JoinNode* j : store.join_children) {
      if (j->left_linked) join_left_activate(*j, t);
    }
    for (BetaNode* c : store.left_children) left_activate(*c, t, nullptr, nullptr);
  }

  void join_left_activate(JoinNode& j, Token* t) {
#if PSMSYS_OBS
    ++join_acts[j.topo_id];
#endif
    if (j.index_test >= 0) {
      counters.match_cost += costs.join_test;  // hash lookup
      const RightIndex& right = j.amem->right_indexes[j.right_ord];
      const auto it = right.find(token_key(j, t));
      if (it == right.end()) return;
      for (const RightEntry& e : it->second) {
        if (join_passes(j.tests, t, *e.rec)) {
          for (BetaNode* c : j.children) left_activate(*c, t, e.rec->wme, e.rec);
        }
      }
      return;
    }
    for (const AmItem& e : j.amem->items) {
      if (join_passes(j.tests, t, *e.rec)) {
        for (BetaNode* c : j.children) left_activate(*c, t, e.rec->wme, e.rec);
      }
    }
  }

  void join_right_activate(JoinNode& j, WmeRecord& w) {
#if PSMSYS_OBS
    ++join_acts[j.topo_id];
#endif
    if (j.index_test >= 0) {
      counters.match_cost += costs.join_test;  // hash lookup
      const LeftIndex& left = j.parent->left_indexes[j.left_ord];
      const auto it = left.find(wme_key(j, w));
      if (it == left.end()) return;
      for (Token* t : it->second) {
        if (join_passes(j.tests, t, w)) {
          for (BetaNode* c : j.children) left_activate(*c, t, w.wme, &w);
        }
      }
      return;
    }
    for (Token* t : j.parent->tokens) {
      // A negative store's blocked tokens are not in the active set.
      if (j.parent->kind == BetaKind::Negative && !t->join_results.empty()) continue;
      if (join_passes(j.tests, t, w)) {
        for (BetaNode* c : j.children) left_activate(*c, t, w.wme, &w);
      }
    }
  }

  void negative_right_activate(BetaNode& neg, WmeRecord& w) {
#if PSMSYS_OBS
    ++join_acts[neg.topo_id];
#endif
    if (neg.index_test >= 0) {
      counters.match_cost += costs.join_test;
      const JoinTest& key = neg.tests[static_cast<std::size_t>(neg.index_test)];
      const auto it = neg.left_index.find(rec_slot(w, key.wme_slot));
      if (it == neg.left_index.end()) return;
      for (Token* t : it->second) negative_block(neg, t, w);
      return;
    }
    for (Token* t : neg.tokens) negative_block(neg, t, w);
  }

  void negative_block(BetaNode& neg, Token* t, WmeRecord& w) {
    if (join_passes(neg.tests, t, w)) {
      if (t->join_results.empty()) delete_descendents(t);  // now blocked
      new_jr(t, &w);
    }
  }

  /// The WMEs of production token `t` in CE order, gathered into `matched`;
  /// the span is valid until the next call.
  [[nodiscard]] std::span<const Wme* const> wmes_of(const Token* t) {
    matched.clear();
    for (const Token* cur = t; cur != nullptr; cur = cur->parent) {
      if (cur->wme != nullptr) matched.push_back(cur->wme);
    }
    std::reverse(matched.begin(), matched.end());
    return matched;
  }

  void delete_descendents(Token* t) {
    while (!t->children.empty()) delete_token_and_descendents(t->children.back());
  }

  void delete_token_and_descendents(Token* t) {
    delete_descendents(t);
    BetaNode& node = *t->node;
    if (node.kind == BetaKind::Memory) {
      unindex_token(node, t);
      for (JoinNode* j : node.join_children) {
        if (j->index_test >= 0 && j->left_linked) {
          counters.match_cost += costs.join_test;  // per-successor index upkeep
        }
      }
    }
    if (node.kind == BetaKind::Production) {
      counters.match_cost += costs.conflict_set_op;
      listener.on_deactivate(*node.production, wmes_of(t));
    }
    if (node.kind == BetaKind::Negative) {
      for (NegJoinResult* jr : t->join_results) {
        swap_erase(jr->wrec->neg_results, jr->pos_in_wrec,
                   [](NegJoinResult* moved, std::uint32_t p) { moved->pos_in_wrec = p; });
        free_jr(jr);
      }
      t->join_results.clear();
      if (node.index_test >= 0) {
        counters.match_cost += costs.join_test;
        swap_erase(node.left_index.at(neg_left_key(node, t)), t->left_pos[0],
                   [](Token* moved, std::uint32_t p) { moved->left_pos[0] = p; });
      }
    }
    swap_erase(node.tokens, t->pos_in_node,
               [](Token* moved, std::uint32_t p) { moved->pos_in_node = p; });
    if (node.tokens.empty()) right_unlink_children(node);
    if (t->wrec != nullptr) {
      swap_erase(t->wrec->tokens, t->pos_in_wrec,
                 [](Token* moved, std::uint32_t p) { moved->pos_in_wrec = p; });
    }
    if (t->parent != nullptr) {
      swap_erase(t->parent->children, t->pos_in_parent,
                 [](Token* moved, std::uint32_t p) { moved->pos_in_parent = p; });
    }
    free_token(t);
  }

  /// Charge `n` patterns their failed bucket test: exactly what the linear
  /// scan charged each of them (one alpha test — the first evaluated
  /// constant test, an equality the WME's value does not meet), and one
  /// chunk of that cost per pattern in its dispatch position.
  void charge_skipped(std::uint32_t n) {
    counters.alpha_tests += n;
    counters.match_cost += costs.alpha_test * n;
    if (options.record_chunks) chunks.insert(chunks.end(), n, costs.alpha_test);
  }

  void add_wme(const Wme& w) {
    // The guard first: a re-entrant add must not grow the index under the
    // position a remove in progress holds.
    DeltaGuard guard(in_delta);
    wme_index.reserve_one();
    const std::size_t at = find_record(&w);
    if (wme_index[at] != nullptr) throw std::logic_error("WME added twice to Rete network");
    WmeRecord* rec = make_record(w);
    wme_index.fill(at, rec);
    if (w.class_index() >= dispatch.size()) return;
    const ClassDispatch& d = dispatch[w.class_index()];
    visit.assign(d.unbucketed.begin(), d.unbucketed.end());
    for (const ClassDispatch::SlotBuckets& sb : d.slots) {
      const auto it = sb.buckets.find(rec_slot(*rec, sb.slot));
      if (it != sb.buckets.end()) visit.insert(visit.end(), it->second.begin(), it->second.end());
    }
    if (!d.slots.empty()) std::sort(visit.begin(), visit.end());
    // Visit in dispatch order, so activations — and every listener callback
    // and chunk — come out in the order the linear scan produced them.
    std::uint32_t next = 0;
    for (const std::uint32_t pos : visit) {
      charge_skipped(pos - next);
      next = pos + 1;
      AlphaPattern* p = d.patterns[pos];
      const util::WorkUnits before = counters.match_cost;
      if (alpha_passes(*p, *rec)) {
        ++counters.alpha_activations;
#if PSMSYS_OBS
        ++alpha_acts[p->topo_id];
#endif
        counters.match_cost += costs.alpha_mem_insert;
        AlphaMemory& am = *p->memory;
        const bool was_empty = am.items.empty();
        const auto am_slot = static_cast<std::uint32_t>(rec->alpha_mems.size());
        const auto right_base = static_cast<std::uint32_t>(rec->right_pos.size());
        rec->alpha_mems.push_back(
            {&am, static_cast<std::uint32_t>(am.items.size()), right_base});
        am.items.push_back({rec, am_slot});
        rec->right_pos.resize(right_base + am.index_slots.size());
        if (was_empty) left_relink_successors(am);
        // Physical upkeep of the shared right indexes (uncharged), then the
        // per-successor upkeep charges for linked indexed successors.
        for (std::uint32_t ord = 0; ord < am.index_slots.size(); ++ord) {
          auto& bucket = bucket_of(am.right_indexes[ord], right_bucket_pool,
                                   rec_slot(*rec, am.index_slots[ord]));
          const std::uint32_t ps = right_base + ord;
          rec->right_pos[ps] = static_cast<std::uint32_t>(bucket.size());
          bucket.push_back({rec, ps});
        }
        for (const JoinNode* j : am.join_successors) {
          if (j->index_test >= 0 && j->right_linked) {
            counters.match_cost += costs.join_test;
          }
        }
        for (const BetaNode* neg : am.negative_successors) {
          if (neg->index_test >= 0 && neg->right_linked) {
            counters.match_cost += costs.join_test;
          }
        }
        for (BetaNode* neg : am.negative_successors) {
          if (neg->right_linked) negative_right_activate(*neg, *rec);
        }
        for (JoinNode* j : am.join_successors) {
          if (j->right_linked) join_right_activate(*j, *rec);
        }
      }
      if (options.record_chunks) chunks.push_back(counters.match_cost - before);
    }
    charge_skipped(static_cast<std::uint32_t>(d.patterns.size()) - next);
  }

  void remove_wme(const Wme& w) {
    const std::size_t at = find_record(&w);
    WmeRecord* rec = wme_index[at];
    if (rec == nullptr) throw std::logic_error("removing WME not in Rete network");
    DeltaGuard guard(in_delta);

    const util::WorkUnits before = counters.match_cost;
    for (const WmeRecord::AmRef& ref : rec->alpha_mems) {
      counters.match_cost += costs.alpha_mem_insert;
      AlphaMemory& am = *ref.am;
      swap_erase(am.items, ref.item_pos, [](const AmItem& moved, std::uint32_t p) {
        moved.rec->alpha_mems[moved.am_slot].item_pos = p;
      });
      for (std::uint32_t ord = 0; ord < am.index_slots.size(); ++ord) {
        swap_erase(am.right_indexes[ord].at(rec_slot(*rec, am.index_slots[ord])),
                   rec->right_pos[ref.right_base + ord],
                   [](const RightEntry& moved, std::uint32_t p) {
                     moved.rec->right_pos[moved.pos_slot] = p;
                   });
      }
      for (const JoinNode* j : am.join_successors) {
        if (j->index_test >= 0 && j->right_linked) {
          counters.match_cost += costs.join_test;
        }
      }
      for (const BetaNode* neg : am.negative_successors) {
        if (neg->index_test >= 0 && neg->right_linked) {
          counters.match_cost += costs.join_test;
        }
      }
      if (am.items.empty()) left_unlink_successors(am);
    }
    rec->alpha_mems.clear();
    rec->right_pos.clear();

    while (!rec->tokens.empty()) delete_token_and_descendents(rec->tokens.back());

    while (!rec->neg_results.empty()) {
      NegJoinResult* jr = rec->neg_results.back();
      rec->neg_results.pop_back();
      Token* owner = jr->owner;
      swap_erase(owner->join_results, jr->pos_in_owner,
                 [](NegJoinResult* moved, std::uint32_t p) { moved->pos_in_owner = p; });
      free_jr(jr);
      if (owner->join_results.empty()) emit_from_store(*owner->node, owner);  // unblocked
    }

    // Propagation never adds or removes a WME (the delta guard), so `at`
    // still names the record's slot.
    wme_index.erase(at);
    recycle_record(rec);
    if (options.record_chunks) chunks.push_back(counters.match_cost - before);
  }

  void clear() {
    if (in_delta) throw std::logic_error("re-entrant WME mutation during match propagation");
    // Structural teardown of all match state; no listener callbacks (the
    // engine resets its conflict set alongside). Buckets, tokens, records,
    // and join results all return to their pools with capacity intact. The
    // dummy token is charged like the others, as it always was, but stays.
    for (auto& node : beta_nodes) {
      for (Token* t : node.tokens) {
        for (NegJoinResult* jr : t->join_results) join_results.release(jr);
        t->join_results.clear();
        if (t == dummy_token) {
          charge_token_free();
        } else {
          free_token(t);
        }
      }
      node.tokens.clear();
      release_index(node.left_index);
      for (auto& li : node.left_indexes) release_index(li);
    }
    for (auto& am : alpha_memories) {
      am.items.clear();
      for (auto& ri : am.right_indexes) release_index(ri);
    }
    wme_index.for_each([this](WmeRecord& rec) { recycle_record(&rec); });
    wme_index.clear();
    dummy_store->tokens.push_back(dummy_token);
    dummy_token->pos_in_node = 0;
    dummy_token->children.clear();
    chunks.clear();
    reset_links();
#if PSMSYS_OBS
    // Back to the post-construction state: only the dummy token is alive and
    // it is not gauge-counted (it was allocated outside new_token). The peak
    // deliberately survives clear() — it is a lifetime high-water mark.
    live_tokens = 0;
#endif
  }

  // ------------------------------- compilation ----------------------------

  AlphaPattern* build_or_share_alpha(ClassIndex cls, std::vector<ConstTest> const_tests,
                                     std::vector<IntraTest> intra_tests,
                                     std::vector<DisjTest> disj_tests) {
    // Canonical order for sharing.
    std::sort(const_tests.begin(), const_tests.end(), [](const ConstTest& a, const ConstTest& b) {
      if (a.slot != b.slot) return a.slot < b.slot;
      return static_cast<int>(a.pred) < static_cast<int>(b.pred);
    });
    std::sort(intra_tests.begin(), intra_tests.end(), [](const IntraTest& a, const IntraTest& b) {
      if (a.slot != b.slot) return a.slot < b.slot;
      return a.other_slot < b.other_slot;
    });
    std::sort(disj_tests.begin(), disj_tests.end(),
              [](const DisjTest& a, const DisjTest& b) { return a.slot < b.slot; });
    if (options.node_sharing) {
      for (AlphaPattern& p : patterns) {
        if (p.cls == cls && p.const_tests == const_tests && p.intra_tests == intra_tests &&
            p.disj_tests == disj_tests) {
          return &p;
        }
      }
    }
    AlphaPattern& p = *patterns.acquire();
    p.cls = cls;
    p.const_tests = std::move(const_tests);
    p.intra_tests = std::move(intra_tests);
    p.disj_tests = std::move(disj_tests);
    p.memory = alpha_memories.acquire();
    p.topo_id = static_cast<std::uint32_t>(patterns.constructed() - 1);
    dispatch[cls].patterns.push_back(&p);
    return &p;
  }

  /// Post-compile pass: bucket each class's patterns by their first
  /// constant test.
  void finalize_dispatch() {
    for (ClassDispatch& d : dispatch) {
      for (std::uint32_t pos = 0; pos < d.patterns.size(); ++pos) {
        const AlphaPattern& p = *d.patterns[pos];
        const ConstTest* first = p.const_tests.empty() ? nullptr : &p.const_tests[0];
        if (first == nullptr || first->pred != Predicate::Eq) {
          d.unbucketed.push_back(pos);
          continue;
        }
        // NaN equals nothing, not even itself: the pattern never passes.
        if (first->value.is_number() && std::isnan(first->value.number())) continue;
        auto sb = std::find_if(d.slots.begin(), d.slots.end(),
                               [&](const auto& b) { return b.slot == first->slot; });
        if (sb == d.slots.end()) sb = d.slots.insert(d.slots.end(), {first->slot, {}});
        sb->buckets[first->value].push_back(pos);
      }
    }
  }

  BetaNode* build_or_share_memory(JoinNode& parent) {
    // Shared or not, a join has at most one memory child.
    for (BetaNode* c : parent.children) {
      if (c->kind == BetaKind::Memory) return c;
    }
    BetaNode& bm = *beta_nodes.acquire();
    bm.kind = BetaKind::Memory;
    parent.children.push_back(&bm);
    return &bm;
  }

  JoinNode* build_or_share_join(BetaNode& store, const AlphaPattern& alpha,
                                std::vector<JoinTest> tests, std::uint32_t depth) {
    AlphaMemory& amem = *alpha.memory;
    if (options.node_sharing) {
      for (JoinNode* j : store.join_children) {
        if (j->amem == &amem && j->tests == tests) return j;
      }
    }
    JoinNode& j = *join_nodes.acquire();
    j.parent = &store;
    j.amem = &amem;
    j.tests = std::move(tests);
    j.topo_id = next_join_id++;
    j.topo_alpha = alpha.topo_id;
    j.topo_depth = depth;
    if (options.indexed_joins && store.kind == BetaKind::Memory) {
      for (std::size_t i = 0; i < j.tests.size(); ++i) {
        if (j.tests[i].pred == Predicate::Eq) {
          j.index_test = static_cast<int>(i);
          break;
        }
      }
    }
    store.join_children.push_back(&j);
    amem.join_successors.push_back(&j);
    return &j;
  }

  BetaNode* build_negative(JoinNode* join_parent, BetaNode* store_parent,
                           const AlphaPattern& alpha, std::vector<JoinTest> tests,
                           std::uint32_t depth) {
    AlphaMemory& amem = *alpha.memory;
    if (options.node_sharing) {
      const auto match = [&](BetaNode* c) {
        return c->kind == BetaKind::Negative && c->amem == &amem && c->tests == tests;
      };
      if (join_parent != nullptr) {
        for (BetaNode* c : join_parent->children) {
          if (match(c)) return c;
        }
      } else {
        for (BetaNode* c : store_parent->left_children) {
          if (match(c)) return c;
        }
      }
    }
    BetaNode& neg = *beta_nodes.acquire();
    neg.kind = BetaKind::Negative;
    neg.amem = &amem;
    neg.tests = std::move(tests);
    neg.topo_id = next_join_id++;
    neg.topo_alpha = alpha.topo_id;
    neg.topo_depth = depth;
    if (options.indexed_joins) {
      for (std::size_t i = 0; i < neg.tests.size(); ++i) {
        if (neg.tests[i].pred == Predicate::Eq) {
          neg.index_test = static_cast<int>(i);
          break;
        }
      }
    }
    if (join_parent != nullptr) {
      join_parent->children.push_back(&neg);
    } else {
      store_parent->left_children.push_back(&neg);
    }
    amem.negative_successors.push_back(&neg);
    return &neg;
  }

  void compile(const ops5::Production& production, NetworkStats& stats) {
    if (options.shared_bindings == nullptr || !options.shared_bindings->contains(&production)) {
      bindings.emplace(&production, ops5::analyze_bindings(production));
    }

    struct BoundVar {
      std::uint32_t depth;  // chain depth of the token carrying the binding
      SlotIndex slot;
    };
    std::unordered_map<ops5::VariableId, BoundVar> bound;

    BetaNode* current_store = dummy_store;
    JoinNode* pending_join = nullptr;
    std::uint32_t chain_depth = 0;
    NetworkTopology::ProductionPath& path = paths.emplace_back();
    path.production = production.id();

    for (const auto& ce : production.lhs()) {
      // Split this CE's tests into alpha-level and join-level tests.
      std::vector<ConstTest> const_tests;
      std::vector<IntraTest> intra_tests;
      std::vector<DisjTest> disj_tests;
      std::unordered_map<ops5::VariableId, SlotIndex> ce_local;
      struct PendingJoinTest {
        SlotIndex wme_slot;
        Predicate pred;
        std::uint32_t binding_depth;
        SlotIndex token_slot;
      };
      std::vector<PendingJoinTest> join_tests_raw;

      for (const auto& test : ce.tests) {
        if (test.is_disjunction()) {
          disj_tests.push_back({test.slot, test.disjunction});
          continue;
        }
        if (!test.is_variable) {
          const_tests.push_back({test.slot, test.pred, test.constant});
          continue;
        }
        if (const auto it = bound.find(test.var); it != bound.end()) {
          join_tests_raw.push_back({test.slot, test.pred, it->second.depth, it->second.slot});
        } else if (const auto lc = ce_local.find(test.var); lc != ce_local.end()) {
          intra_tests.push_back({test.slot, test.pred, lc->second});
        } else {
          ce_local.emplace(test.var, test.slot);  // binding occurrence
        }
      }

      AlphaPattern* alpha = build_or_share_alpha(ce.cls, std::move(const_tests),
                                                 std::move(intra_tests), std::move(disj_tests));
      alpha->users.push_back(production.id());

      if (!ce.negated) {
        if (pending_join != nullptr) {
          current_store = build_or_share_memory(*pending_join);
          ++chain_depth;
          pending_join = nullptr;
        }
        // Candidate tokens at this join have depth == chain_depth.
        std::vector<JoinTest> tests;
        tests.reserve(join_tests_raw.size());
        for (const auto& r : join_tests_raw) {
          tests.push_back({r.wme_slot, r.pred, chain_depth - r.binding_depth, r.token_slot});
        }
        pending_join = build_or_share_join(*current_store, *alpha, std::move(tests), chain_depth);
        pending_join->users.push_back(production.id());
        path.nodes.push_back(pending_join->topo_id);
        // This CE's wme lands in the next token-creating node: depth+1.
        for (const auto& [var, slot] : ce_local) {
          bound.emplace(var, BoundVar{chain_depth + 1, slot});
        }
      } else {
        // Negative node tokens have depth chain_depth + 1.
        std::vector<JoinTest> tests;
        tests.reserve(join_tests_raw.size());
        for (const auto& r : join_tests_raw) {
          tests.push_back({r.wme_slot, r.pred, chain_depth + 1 - r.binding_depth, r.token_slot});
        }
        BetaNode* neg = build_negative(pending_join, current_store, *alpha, std::move(tests),
                                       chain_depth);
        neg->users.push_back(production.id());
        path.nodes.push_back(neg->topo_id);
        pending_join = nullptr;
        current_store = neg;
        ++chain_depth;
      }
    }

    BetaNode& pnode = *beta_nodes.acquire();
    pnode.kind = BetaKind::Production;
    pnode.production = &production;
    if (pending_join != nullptr) {
      pending_join->children.push_back(&pnode);
    } else {
      current_store->left_children.push_back(&pnode);
    }
    ++stats.production_nodes;
  }

  /// Post-compile pass (sharing can extend successor lists mid-compile, so
  /// the shared-index layout is only stable once all productions are in):
  /// dedupes each alpha memory's indexed successors by WME key slot and each
  /// store's indexed join children by (levels_up, token_slot) key spec, hands
  /// every successor the ordinal of its shared index, then sets the initial
  /// link flags.
  void finalize_links() {
    for (auto& am : alpha_memories) {
      const auto slot_ord = [&am](SlotIndex slot) {
        for (std::uint32_t k = 0; k < am.index_slots.size(); ++k) {
          if (am.index_slots[k] == slot) return k;
        }
        am.index_slots.push_back(slot);
        return static_cast<std::uint32_t>(am.index_slots.size() - 1);
      };
      for (JoinNode* j : am.join_successors) {
        if (j->index_test >= 0) {
          j->right_ord = slot_ord(j->tests[static_cast<std::size_t>(j->index_test)].wme_slot);
        }
      }
      for (BetaNode* neg : am.negative_successors) {
        if (neg->index_test >= 0) {
          neg->right_ord =
              slot_ord(neg->tests[static_cast<std::size_t>(neg->index_test)].wme_slot);
        }
      }
      am.right_indexes.resize(am.index_slots.size());
    }
    for (auto& node : beta_nodes) {
      for (JoinNode* j : node.join_children) {
        if (j->index_test < 0) continue;
        const JoinTest& test = j->tests[static_cast<std::size_t>(j->index_test)];
        std::uint32_t k = 0;
        for (; k < node.left_specs.size(); ++k) {
          if (node.left_specs[k].levels_up == test.levels_up &&
              node.left_specs[k].token_slot == test.token_slot) {
            break;
          }
        }
        if (k == node.left_specs.size()) {
          node.left_specs.push_back({test.levels_up, test.token_slot});
        }
        j->left_ord = k;
      }
      node.left_indexes.resize(node.left_specs.size());
    }
    reset_links();
  }

  /// Link flags for the current (empty or post-clear) memory contents. The
  /// dummy store always holds the dummy token, so depth-0 joins stay
  /// right-linked for the network's whole life.
  void reset_links() {
    for (auto& j : join_nodes) {
      j.right_linked = !j.parent->tokens.empty();
      j.left_linked = !j.amem->items.empty();
    }
    for (auto& node : beta_nodes) {
      if (node.kind == BetaKind::Negative) {
        node.right_linked = !node.tokens.empty();
      }
    }
  }

  // ------------------------------ invariants ------------------------------

  [[nodiscard]] std::vector<std::string> check_invariants() const {
    std::vector<std::string> out;
    const auto fail = [&out](std::string msg) { out.push_back(std::move(msg)); };

    // Token trees, position back-pointers, and join-result cross-links.
    std::size_t node_idx = 0;
    std::uint64_t total_tokens = 0;
    for (const auto& node : beta_nodes) {
      const std::string where = "beta node " + std::to_string(node_idx);
      for (std::uint32_t i = 0; i < node.tokens.size(); ++i) {
        const Token* t = node.tokens[i];
        ++total_tokens;
        if (t->pos_in_node != i || t->node != &node) fail(where + ": token position desync");
        if ((t->wme == nullptr) != (t->wrec == nullptr)) fail(where + ": wme/wrec pairing");
        if (t->wrec != nullptr) {
          if (t->wrec->wme != t->wme) fail(where + ": token wrec names wrong WME");
          if (t->pos_in_wrec >= t->wrec->tokens.size() ||
              t->wrec->tokens[t->pos_in_wrec] != t) {
            fail(where + ": token wrec position desync");
          }
        }
        if (t->parent != nullptr &&
            (t->pos_in_parent >= t->parent->children.size() ||
             t->parent->children[t->pos_in_parent] != t)) {
          fail(where + ": token parent position desync");
        }
        for (std::uint32_t c = 0; c < t->children.size(); ++c) {
          if (t->children[c]->parent != t || t->children[c]->pos_in_parent != c) {
            fail(where + ": child back-pointer desync");
          }
        }
        if (node.kind != BetaKind::Negative && !t->join_results.empty()) {
          fail(where + ": join results on non-negative token");
        }
        for (std::uint32_t r = 0; r < t->join_results.size(); ++r) {
          const NegJoinResult* jr = t->join_results[r];
          if (jr->owner != t || jr->pos_in_owner != r) fail(where + ": join-result owner desync");
          if (jr->wrec == nullptr || jr->pos_in_wrec >= jr->wrec->neg_results.size() ||
              jr->wrec->neg_results[jr->pos_in_wrec] != jr) {
            fail(where + ": join-result record desync");
          }
        }
      }
      ++node_idx;
    }

    // Record values and alpha-memory membership.
    wme_index.for_each([&](const WmeRecord& r) {
      const WmeRecord* rec = &r;
      if (wme_index[find_record(rec->wme)] != rec) fail("record not reachable from its WME");
      if (rec->vals != rec->wme->slots().data()) fail("record values desync from its WME");
      for (std::uint32_t i = 0; i < rec->alpha_mems.size(); ++i) {
        const WmeRecord::AmRef& ref = rec->alpha_mems[i];
        if (ref.item_pos >= ref.am->items.size() || ref.am->items[ref.item_pos].rec != rec ||
            ref.am->items[ref.item_pos].am_slot != i) {
          fail("alpha-memory item position desync");
        }
      }
    });

    // Shared-index mirrors: always maintained, independent of link state.
    std::size_t am_idx = 0;
    for (const auto& am : alpha_memories) {
      const std::string who = "alpha memory " + std::to_string(am_idx);
      if (am.right_indexes.size() != am.index_slots.size()) {
        fail(who + ": shared right index layout desync");
      }
      for (std::uint32_t ord = 0; ord < am.index_slots.size(); ++ord) {
        std::size_t entries = 0;
        for (const auto& [key, bucket] : am.right_indexes[ord]) {
          for (std::uint32_t i = 0; i < bucket.size(); ++i) {
            ++entries;
            const RightEntry& e = bucket[i];
            if (!(rec_slot(*e.rec, am.index_slots[ord]) == key)) {
              fail(who + ": right entry under wrong key");
            }
            if (e.pos_slot >= e.rec->right_pos.size() || e.rec->right_pos[e.pos_slot] != i) {
              fail(who + ": right entry position desync");
            }
          }
        }
        if (entries != am.items.size()) fail(who + ": right index does not mirror items");
      }
      ++am_idx;
    }
    node_idx = 0;
    for (const auto& node : beta_nodes) {
      const std::string who = "beta node " + std::to_string(node_idx);
      if (node.left_indexes.size() != node.left_specs.size()) {
        fail(who + ": shared left index layout desync");
      }
      for (std::uint32_t ord = 0; ord < node.left_specs.size(); ++ord) {
        const BetaNode::LeftSpec& spec = node.left_specs[ord];
        std::size_t entries = 0;
        for (const auto& [key, bucket] : node.left_indexes[ord]) {
          for (std::uint32_t i = 0; i < bucket.size(); ++i) {
            ++entries;
            Token* t = bucket[i];
            if (t->node != &node) fail(who + ": left entry from foreign store");
            if (!(rec_slot(*wme_up(t, spec.levels_up), spec.token_slot) == key)) {
              fail(who + ": left entry under wrong key");
            }
            if (ord >= t->left_pos.size() || t->left_pos[ord] != i) {
              fail(who + ": left entry position desync");
            }
          }
        }
        if (entries != node.tokens.size()) fail(who + ": left index does not mirror tokens");
      }
      if (node.kind == BetaKind::Negative && node.index_test >= 0) {
        std::size_t entries = 0;
        for (const auto& [key, bucket] : node.left_index) {
          for (std::uint32_t i = 0; i < bucket.size(); ++i) {
            ++entries;
            Token* t = bucket[i];
            if (t->node != &node) fail(who + ": negative left entry from foreign store");
            if (!(neg_left_key(node, t) == key)) {
              fail(who + ": negative left entry under wrong key");
            }
            if (t->left_pos.empty() || t->left_pos[0] != i) {
              fail(who + ": negative left entry position desync");
            }
          }
        }
        if (entries != node.tokens.size()) {
          fail(who + ": negative left index does not mirror tokens");
        }
      }
      ++node_idx;
    }

    // Link flags mirror the opposite memory's emptiness.
    for (const auto& j : join_nodes) {
      const std::string who = "join " + std::to_string(j.topo_id);
      if (j.right_linked != !j.parent->tokens.empty()) fail(who + ": right link flag desync");
      if (j.left_linked != !j.amem->items.empty()) fail(who + ": left link flag desync");
    }
    for (const auto& node : beta_nodes) {
      if (node.kind != BetaKind::Negative) continue;
      const std::string who = "negative node " + std::to_string(node.topo_id);
      if (node.right_linked != !node.tokens.empty()) fail(who + ": right link flag desync");
    }

#if PSMSYS_OBS
    const bool dummy_alive =
        !dummy_store->tokens.empty() && dummy_store->tokens.front() == dummy_token;
    if (live_tokens != total_tokens - (dummy_alive ? 1 : 0)) {
      fail("live token gauge desync");
    }
#endif
    return out;
  }
};

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

Network::Network(const ops5::Program& program, MatchListener& listener,
                 util::WorkCounters& counters, const util::CostModel& costs,
                 const NetworkOptions& options)
    : impl_(std::make_unique<Impl>(program, listener, counters, costs, options)) {
  if (!program.frozen()) throw std::invalid_argument("Rete requires a frozen Program");
  impl_->dispatch.resize(program.class_count());

  // Dummy top store with its dummy token.
  impl_->dummy_store = impl_->beta_nodes.acquire();
  impl_->dummy_store->kind = BetaKind::Memory;
  impl_->dummy_token = impl_->tokens.acquire();
  impl_->dummy_token->node = impl_->dummy_store;
  impl_->dummy_store->tokens.push_back(impl_->dummy_token);

  for (const auto& p : program.productions()) impl_->compile(p, stats_);

  stats_.alpha_patterns = impl_->patterns.constructed();
  stats_.alpha_memories = impl_->alpha_memories.constructed();
  stats_.join_nodes = impl_->join_nodes.constructed();
  std::size_t memories = 0;
  std::size_t negatives = 0;
  for (const auto& n : impl_->beta_nodes) {
    if (n.kind == BetaKind::Memory) ++memories;
    if (n.kind == BetaKind::Negative) ++negatives;
  }
  stats_.beta_memories = memories - 1;  // exclude the dummy store
  stats_.negative_nodes = negatives;

  impl_->alpha_acts.assign(impl_->patterns.constructed(), 0);
  impl_->join_acts.assign(impl_->next_join_id, 0);
  impl_->finalize_links();
  impl_->finalize_dispatch();
}

Network::~Network() = default;

void Network::add_wme(const ops5::Wme& wme) { impl_->add_wme(wme); }

void Network::remove_wme(const ops5::Wme& wme) { impl_->remove_wme(wme); }

void Network::clear() { impl_->clear(); }

std::vector<util::WorkUnits> Network::take_chunks() {
  return std::exchange(impl_->chunks, {});
}

std::uint64_t Network::peak_live_tokens() const noexcept {
  return impl_->peak_live_tokens;
}

std::uint64_t Network::live_tokens() const noexcept { return impl_->live_tokens; }

NodeActivations Network::node_activations() const {
#if PSMSYS_OBS
  return {impl_->alpha_acts, impl_->join_acts};
#else
  return {};
#endif
}

const ops5::BindingAnalysis& Network::bindings(const ops5::Production& p) const {
  if (const BindingTable* shared = impl_->options.shared_bindings) {
    if (auto it = shared->find(&p); it != shared->end()) return it->second;
  }
  return impl_->bindings.at(&p);
}

std::vector<std::string> Network::check_invariants() const {
  return impl_->check_invariants();
}

NetworkTopology Network::topology() const {
  const auto sorted_unique = [](std::vector<std::uint32_t> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };

  NetworkTopology topo;
  topo.alphas.reserve(impl_->patterns.constructed());
  for (const auto& p : impl_->patterns) {
    NetworkTopology::AlphaNode a;
    a.id = p.topo_id;
    a.cls = p.cls;
    a.const_tests = static_cast<std::uint32_t>(p.const_tests.size());
    a.intra_tests = static_cast<std::uint32_t>(p.intra_tests.size());
    a.disj_tests = static_cast<std::uint32_t>(p.disj_tests.size());
    a.users = sorted_unique(p.users);
    topo.alphas.push_back(std::move(a));
  }

  topo.joins.resize(impl_->next_join_id);
  for (const auto& j : impl_->join_nodes) {
    NetworkTopology::JoinNode& out = topo.joins[j.topo_id];
    out.id = j.topo_id;
    out.alpha = j.topo_alpha;
    out.depth = j.topo_depth;
    out.tests = static_cast<std::uint32_t>(j.tests.size());
    out.indexed = j.index_test >= 0;
    out.negated = false;
    out.users = sorted_unique(j.users);
  }
  for (const auto& n : impl_->beta_nodes) {
    if (n.kind != BetaKind::Negative) continue;
    NetworkTopology::JoinNode& out = topo.joins[n.topo_id];
    out.id = n.topo_id;
    out.alpha = n.topo_alpha;
    out.depth = n.topo_depth;
    out.tests = static_cast<std::uint32_t>(n.tests.size());
    out.indexed = n.index_test >= 0;
    out.negated = true;
    out.users = sorted_unique(n.users);
  }

  topo.productions = impl_->paths;
  return topo;
}

BindingTable analyze_all_bindings(const ops5::Program& program) {
  BindingTable table;
  table.reserve(program.productions().size());
  for (const auto& p : program.productions()) {
    table.emplace(&p, ops5::analyze_bindings(p));
  }
  return table;
}

}  // namespace psmsys::rete
