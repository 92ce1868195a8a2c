#include "rete/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/open_table.hpp"
#include "util/pool.hpp"
#include "util/small_vec.hpp"

// Hot-path layout (this file's four structural commitments):
//
//  * Shape apart from state — every node's shape (tests, successor lists,
//    index layouts, production paths) lives in the CompiledNetwork under a
//    dense id: alpha patterns and their memories share the pattern's id,
//    positive joins and negative nodes share the topology's join ids, and
//    every token store (the dummy top store, beta memories, negative and
//    production nodes) has a store id. A Network keeps only what matching
//    changes, in flat arrays indexed by those ids, so building an engine over
//    a compiled rule base allocates a handful of arrays and compiles nothing.
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
// Compiled node shapes (read-only once compiled, shared by every Network)
// ---------------------------------------------------------------------------

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

constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

/// An alpha pattern and the shape of its alpha memory (one memory per
/// pattern, so both go by the pattern's id).
struct AlphaNode {
  ClassIndex cls = 0;
  std::vector<ConstTest> const_tests;
  std::vector<IntraTest> intra_tests;
  std::vector<DisjTest> disj_tests;
  std::vector<std::uint32_t> join_successors;      ///< positive join ids
  std::vector<std::uint32_t> negative_successors;  ///< negative node join ids
  /// Shared right indexes, one per distinct WME key slot among the indexed
  /// successors (finalize_links). Records' right_pos spans are
  /// index_slots.size() wide.
  std::vector<SlotIndex> index_slots;
  std::uint32_t first_right_index = 0;  ///< its indexes in the network's flat array
};

/// A two-input node by join id: a positive join or a negative node.
struct JoinNode {
  std::uint32_t alpha = 0;  ///< right input
  /// The token store whose emptiness right-unlinks the node: a join's left
  /// input, a negative node's own store.
  std::uint32_t store = 0;
  std::uint32_t depth = 0;  ///< CEs resolved before this node
  bool negated = false;
  std::vector<JoinTest> tests;
  std::vector<std::uint32_t> children;  ///< positive joins: store ids fed
  // Hashed-memory optimization (ParaOPS5): when the node has an equality
  // test (and a join's left input is a plain memory), both sides are indexed
  // by that test's value so an activation probes only matching candidates.
  // The physical indexes are shared on the memories; the node holds
  // ordinals.
  int index_test = -1;          // -1: unindexed (scan)
  std::uint32_t right_ord = 0;  ///< alpha memory shared-index ordinal (index_slots)
  std::uint32_t left_ord = 0;   ///< positive joins: left store's ordinal (left_specs)
};

enum class BetaKind : std::uint8_t { Memory, Negative, Production };

/// A token store by store id: the dummy top store (id 0), a beta memory, a
/// negative node or a production node.
struct StoreNode {
  BetaKind kind = BetaKind::Memory;
  std::uint32_t join = kNoNode;  ///< Negative only: its join id
  std::vector<std::uint32_t> join_children;  ///< positive join ids
  std::vector<std::uint32_t> left_children;  ///< store ids (NEG->NEG, NEG->P chains)
  /// Shared left indexes over this store's tokens: for a memory, one per
  /// distinct (levels_up, token_slot) key spec among indexed join children
  /// (finalize_links); for an indexed negative node, its own key (joins
  /// below a negative node are never indexed). Member tokens' left_pos spans
  /// are left_specs.size() wide.
  struct LeftSpec {
    std::uint32_t levels_up = 0;
    SlotIndex token_slot = 0;
  };
  std::vector<LeftSpec> left_specs;
  std::uint32_t first_left_index = 0;  ///< its indexes in the network's flat array
  const ops5::Production* production = nullptr;  ///< Production only
};

/// Hashed alpha dispatch for one WME class (Doorenbos' hashed alpha
/// network). `patterns` is the class's dispatch list of alpha ids in compile
/// order. A pattern whose first constant test is an equality can only pass
/// for WMEs carrying that (slot, value), so it sits in that bucket; every
/// other pattern is unbucketed and visited by every WME of the class. A
/// pattern whose first test equals NaN can never pass and sits nowhere.
/// Positions are ascending within every list.
struct ClassDispatch {
  std::vector<std::uint32_t> patterns;
  std::vector<std::uint32_t> unbucketed;
  struct SlotBuckets {
    SlotIndex slot = 0;
    std::unordered_map<Value, std::vector<std::uint32_t>, ops5::ValueHash> buckets;
  };
  std::vector<SlotBuckets> slots;
};

// ---------------------------------------------------------------------------
// Match state (per Network)
// ---------------------------------------------------------------------------

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
  util::SmallVec<Token*, kInlineChildren> children;
  /// Only for tokens owned by negative nodes.
  util::SmallVec<NegJoinResult*, kInlineJoinResults> join_results;
  std::uint32_t store = 0;          ///< id of the store holding the token
  std::uint32_t pos_in_node = 0;    ///< position in its store's tokens
  std::uint32_t pos_in_parent = 0;  ///< position in parent->children
  std::uint32_t pos_in_wrec = 0;    ///< position in wrec->tokens
  /// Left-index bucket positions: one slot per shared left index of the
  /// owning store.
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
    std::uint32_t alpha = 0;       ///< the alpha memory's id
    std::uint32_t item_pos = 0;    ///< position in the memory's items
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

/// Unlink flags of one two-input node: right mirrors its store's tokens
/// non-emptiness, left (positive joins only) its alpha memory's items
/// non-emptiness. Flags gate activations and index-upkeep charges only — the
/// shared indexes are maintained regardless.
struct Links {
  bool right = true;
  bool left = true;
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

/// The token-side key of an indexed node: the bound value its equality test
/// compares against.
[[nodiscard]] const Value& token_key(const JoinNode& j, const Token* t) {
  const JoinTest& test = j.tests[static_cast<std::size_t>(j.index_test)];
  return rec_slot(*wme_up(t, test.levels_up), test.token_slot);
}

/// The WME-side key of an indexed node.
[[nodiscard]] const Value& wme_key(const JoinNode& j, const WmeRecord& w) {
  return rec_slot(w, j.tests[static_cast<std::size_t>(j.index_test)].wme_slot);
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct CompiledNetwork::Nodes {
  const ops5::Program& program;
  NetworkOptions options;
  std::vector<AlphaNode> alphas;  ///< by alpha id
  std::vector<JoinNode> joins;    ///< by join id
  std::vector<StoreNode> stores;  ///< by store id; 0 is the dummy top store
  std::vector<ClassDispatch> dispatch;  ///< by class
  std::vector<NetworkTopology::ProductionPath> paths;  ///< by production id
  std::vector<ops5::BindingAnalysis> bindings;         ///< by production id
  std::uint32_t right_indexes = 0;  ///< shared right indexes over all alpha memories
  std::uint32_t left_indexes = 0;   ///< shared left indexes over all stores

  Nodes(const ops5::Program& prog, const NetworkOptions& opt) : program(prog), options(opt) {
    dispatch.resize(program.class_count());
    new_store(BetaKind::Memory);  // the dummy top store
    for (const auto& p : program.productions()) compile(p);
    finalize_links();
    finalize_dispatch();
  }

  std::uint32_t new_store(BetaKind kind) {
    stores.emplace_back().kind = kind;
    return static_cast<std::uint32_t>(stores.size() - 1);
  }

  [[nodiscard]] static int first_equality(const std::vector<JoinTest>& tests) {
    for (std::size_t i = 0; i < tests.size(); ++i) {
      if (tests[i].pred == Predicate::Eq) return static_cast<int>(i);
    }
    return -1;
  }

  std::uint32_t build_or_share_alpha(ClassIndex cls, std::vector<ConstTest> const_tests,
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
      for (std::uint32_t id = 0; id < alphas.size(); ++id) {
        const AlphaNode& p = alphas[id];
        if (p.cls == cls && p.const_tests == const_tests && p.intra_tests == intra_tests &&
            p.disj_tests == disj_tests) {
          return id;
        }
      }
    }
    const auto id = static_cast<std::uint32_t>(alphas.size());
    AlphaNode& p = alphas.emplace_back();
    p.cls = cls;
    p.const_tests = std::move(const_tests);
    p.intra_tests = std::move(intra_tests);
    p.disj_tests = std::move(disj_tests);
    dispatch[cls].patterns.push_back(id);
    return id;
  }

  std::uint32_t build_or_share_memory(std::uint32_t join) {
    // Shared or not, a join has at most one memory child.
    for (const std::uint32_t c : joins[join].children) {
      if (stores[c].kind == BetaKind::Memory) return c;
    }
    const std::uint32_t bm = new_store(BetaKind::Memory);
    joins[join].children.push_back(bm);
    return bm;
  }

  std::uint32_t build_or_share_join(std::uint32_t store, std::uint32_t alpha,
                                    std::vector<JoinTest> tests, std::uint32_t depth) {
    if (options.node_sharing) {
      for (const std::uint32_t j : stores[store].join_children) {
        if (joins[j].alpha == alpha && joins[j].tests == tests) return j;
      }
    }
    const auto id = static_cast<std::uint32_t>(joins.size());
    JoinNode& j = joins.emplace_back();
    j.alpha = alpha;
    j.store = store;
    j.depth = depth;
    j.tests = std::move(tests);
    if (options.indexed_joins && stores[store].kind == BetaKind::Memory) {
      j.index_test = first_equality(j.tests);
    }
    stores[store].join_children.push_back(id);
    alphas[alpha].join_successors.push_back(id);
    return id;
  }

  /// A negative node below `join_parent` or, when that is kNoNode, below
  /// `store_parent`. Returns its join id.
  std::uint32_t build_negative(std::uint32_t join_parent, std::uint32_t store_parent,
                               std::uint32_t alpha, std::vector<JoinTest> tests,
                               std::uint32_t depth) {
    const auto siblings = [&]() -> std::vector<std::uint32_t>& {
      return join_parent != kNoNode ? joins[join_parent].children
                                    : stores[store_parent].left_children;
    };
    if (options.node_sharing) {
      for (const std::uint32_t c : siblings()) {
        const StoreNode& s = stores[c];
        if (s.kind == BetaKind::Negative && joins[s.join].alpha == alpha &&
            joins[s.join].tests == tests) {
          return s.join;
        }
      }
    }
    const std::uint32_t store = new_store(BetaKind::Negative);
    const auto id = static_cast<std::uint32_t>(joins.size());
    stores[store].join = id;
    JoinNode& neg = joins.emplace_back();
    neg.alpha = alpha;
    neg.store = store;
    neg.depth = depth;
    neg.negated = true;
    neg.tests = std::move(tests);
    if (options.indexed_joins) neg.index_test = first_equality(neg.tests);
    siblings().push_back(store);
    alphas[alpha].negative_successors.push_back(id);
    return id;
  }

  void compile(const ops5::Production& production) {
    bindings.push_back(ops5::analyze_bindings(production));

    struct BoundVar {
      std::uint32_t depth;  // chain depth of the token carrying the binding
      SlotIndex slot;
    };
    std::unordered_map<ops5::VariableId, BoundVar> bound;

    std::uint32_t current_store = 0;
    std::uint32_t pending_join = kNoNode;
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

      const std::uint32_t alpha = build_or_share_alpha(
          ce.cls, std::move(const_tests), std::move(intra_tests), std::move(disj_tests));

      if (!ce.negated) {
        if (pending_join != kNoNode) {
          current_store = build_or_share_memory(pending_join);
          ++chain_depth;
        }
        // Candidate tokens at this join have depth == chain_depth.
        std::vector<JoinTest> tests;
        tests.reserve(join_tests_raw.size());
        for (const auto& r : join_tests_raw) {
          tests.push_back({r.wme_slot, r.pred, chain_depth - r.binding_depth, r.token_slot});
        }
        pending_join = build_or_share_join(current_store, alpha, std::move(tests), chain_depth);
        path.nodes.push_back(pending_join);
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
        const std::uint32_t neg =
            build_negative(pending_join, current_store, alpha, std::move(tests), chain_depth);
        path.nodes.push_back(neg);
        pending_join = kNoNode;
        current_store = joins[neg].store;
        ++chain_depth;
      }
    }

    const std::uint32_t pnode = new_store(BetaKind::Production);
    stores[pnode].production = &production;
    if (pending_join != kNoNode) {
      joins[pending_join].children.push_back(pnode);
    } else {
      stores[current_store].left_children.push_back(pnode);
    }
  }

  /// Post-compile pass (sharing can extend successor lists mid-compile, so
  /// the shared-index layout is only stable once all productions are in):
  /// dedupes each alpha memory's indexed successors by WME key slot and each
  /// store's indexed join children by (levels_up, token_slot) key spec, hands
  /// every successor the ordinal of its shared index, and lays every index
  /// out in the network's flat arrays.
  void finalize_links() {
    for (AlphaNode& am : alphas) {
      const auto slot_ord = [&am](SlotIndex slot) {
        for (std::uint32_t k = 0; k < am.index_slots.size(); ++k) {
          if (am.index_slots[k] == slot) return k;
        }
        am.index_slots.push_back(slot);
        return static_cast<std::uint32_t>(am.index_slots.size() - 1);
      };
      for (const auto* successors : {&am.join_successors, &am.negative_successors}) {
        for (const std::uint32_t id : *successors) {
          JoinNode& j = joins[id];
          if (j.index_test >= 0) {
            j.right_ord = slot_ord(j.tests[static_cast<std::size_t>(j.index_test)].wme_slot);
          }
        }
      }
      am.first_right_index = right_indexes;
      right_indexes += static_cast<std::uint32_t>(am.index_slots.size());
    }
    for (StoreNode& node : stores) {
      for (const std::uint32_t id : node.join_children) {
        JoinNode& j = joins[id];
        if (j.index_test < 0) continue;
        const JoinTest& test = j.tests[static_cast<std::size_t>(j.index_test)];
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
        j.left_ord = k;
      }
      if (node.kind == BetaKind::Negative && joins[node.join].index_test >= 0) {
        const JoinNode& neg = joins[node.join];
        const JoinTest& key = neg.tests[static_cast<std::size_t>(neg.index_test)];
        node.left_specs.push_back({key.levels_up, key.token_slot});
      }
      node.first_left_index = left_indexes;
      left_indexes += static_cast<std::uint32_t>(node.left_specs.size());
    }
  }

  /// Post-compile pass: bucket each class's patterns by their first
  /// constant test.
  void finalize_dispatch() {
    for (ClassDispatch& d : dispatch) {
      for (std::uint32_t pos = 0; pos < d.patterns.size(); ++pos) {
        const AlphaNode& p = alphas[d.patterns[pos]];
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
};

CompiledNetwork::CompiledNetwork(const ops5::Program& program, const NetworkOptions& options)
    : nodes_(program.frozen() ? std::make_unique<const Nodes>(program, options)
                              : throw std::invalid_argument("Rete requires a frozen Program")) {}

CompiledNetwork::~CompiledNetwork() = default;

const ops5::Program& CompiledNetwork::program() const noexcept { return nodes_->program; }

NetworkStats CompiledNetwork::stats() const noexcept {
  NetworkStats stats;
  stats.alpha_patterns = nodes_->alphas.size();
  stats.alpha_memories = nodes_->alphas.size();
  for (const JoinNode& j : nodes_->joins) ++(j.negated ? stats.negative_nodes : stats.join_nodes);
  for (const StoreNode& s : nodes_->stores) {
    if (s.kind == BetaKind::Memory) ++stats.beta_memories;
    if (s.kind == BetaKind::Production) ++stats.production_nodes;
  }
  --stats.beta_memories;  // the dummy top store
  return stats;
}

NetworkTopology CompiledNetwork::topology() const {
  const Nodes& c = *nodes_;
  NetworkTopology topo;
  topo.alphas.resize(c.alphas.size());
  for (std::uint32_t id = 0; id < c.alphas.size(); ++id) {
    const AlphaNode& p = c.alphas[id];
    NetworkTopology::AlphaNode& out = topo.alphas[id];
    out.id = id;
    out.cls = p.cls;
    out.const_tests = static_cast<std::uint32_t>(p.const_tests.size());
    out.intra_tests = static_cast<std::uint32_t>(p.intra_tests.size());
    out.disj_tests = static_cast<std::uint32_t>(p.disj_tests.size());
  }
  topo.joins.resize(c.joins.size());
  for (std::uint32_t id = 0; id < c.joins.size(); ++id) {
    const JoinNode& j = c.joins[id];
    NetworkTopology::JoinNode& out = topo.joins[id];
    out.id = id;
    out.alpha = j.alpha;
    out.depth = j.depth;
    out.tests = static_cast<std::uint32_t>(j.tests.size());
    out.indexed = j.index_test >= 0;
    out.negated = j.negated;
  }
  // Each CE compiles into one node and its node's alpha pattern, so the
  // paths name every node's users.
  topo.productions = c.paths;
  for (const auto& path : c.paths) {
    for (const std::uint32_t node : path.nodes) {
      topo.joins[node].users.push_back(path.production);
      topo.alphas[c.joins[node].alpha].users.push_back(path.production);
    }
  }
  const auto sort_unique = [](std::vector<std::uint32_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (auto& a : topo.alphas) sort_unique(a.users);
  for (auto& j : topo.joins) sort_unique(j.users);
  return topo;
}

const ops5::BindingAnalysis& CompiledNetwork::bindings(const ops5::Production& p) const {
  const auto productions = nodes_->program.productions();
  if (p.id() >= productions.size() || &productions[p.id()] != &p) {
    throw std::out_of_range("production is not in the compiled program");
  }
  return nodes_->bindings[p.id()];
}

// ---------------------------------------------------------------------------
// Impl: one engine's match state
// ---------------------------------------------------------------------------

struct Network::Impl {
  std::shared_ptr<const CompiledNetwork> compiled;
  const CompiledNetwork::Nodes& c;
  MatchListener& listener;
  util::WorkCounters& counters;
  bool record_chunks;

  // Tokens, records and join results churn at match time and recycle
  // through their pools' free lists with their lists' capacity intact.
  util::Pool<Token> tokens;
  util::Pool<NegJoinResult> join_results;
  util::Pool<WmeRecord> records;

  // Index-bucket pools: emptied buckets keep their heap blocks and are handed
  // back out when an index gains a fresh key.
  std::vector<std::vector<RightEntry>> right_bucket_pool;
  std::vector<std::vector<Token*>> left_bucket_pool;

  // The state arrays, indexed by the compiled ids.
  std::vector<std::vector<AmItem>> alpha_items;  ///< by alpha id
  std::vector<RightIndex> right_indexes;  ///< at an alpha's first_right_index + ordinal
  std::vector<std::vector<Token*>> store_tokens;  ///< by store id
  std::vector<LeftIndex> left_indexes;  ///< at a store's first_left_index + ordinal
  std::vector<Links> links;             ///< by join id

  /// The pattern positions an add visits; kept to reuse its capacity.
  std::vector<std::uint32_t> visit;

  /// The single pointer->record lookup per add/remove; all interior paths
  /// thread WmeRecord* instead of re-hashing the Wme pointer.
  util::OpenTable<WmeRecord, WmeRecordHash> wme_index;
  /// Index slot of `w`'s record, or the empty slot its probe run ends at.
  [[nodiscard]] std::size_t find_record(const Wme* w) const {
    return wme_index.find_slot(wme_hash(w), [w](const WmeRecord& r) { return r.wme == w; });
  }

  Token* dummy_token = nullptr;

  /// Deferred-mutation guard: activations iterate memories and index buckets
  /// by reference, which is sound because propagation never re-enters the WM
  /// delta entry points. This flag turns an accidental re-entry (a listener
  /// calling back into add/remove/clear) into an immediate logic_error
  /// instead of silent iterator invalidation.
  bool in_delta = false;

  std::vector<util::WorkUnits> chunks;

  /// wmes_of()'s output, reused by every production-node callback: the
  /// listener's span is valid only during the call.
  std::vector<const Wme*> matched;

  // Live/peak token gauge: tokens_created/deleted count churn, this tracks
  // the instantaneous working set.
  std::uint64_t live_tokens = 0;
  std::uint64_t peak_live_tokens = 0;

  // Per-node activation counters, indexed by the topology ids. Lifetime
  // gauges like the peak above: clear() retains them so they show a whole
  // run's traffic per node. Activations skipped at unlinked nodes are not
  // counted — quiescent productions legitimately read zero.
  std::vector<std::uint64_t> alpha_acts;
  std::vector<std::uint64_t> join_acts;

  Impl(std::shared_ptr<const CompiledNetwork> net, MatchListener& lst, util::WorkCounters& ctr,
       bool chunks_on)
      : compiled(std::move(net)),
        c(*compiled->nodes_),
        listener(lst),
        counters(ctr),
        record_chunks(chunks_on),
        alpha_items(c.alphas.size()),
        right_indexes(c.right_indexes),
        store_tokens(c.stores.size()),
        left_indexes(c.left_indexes),
        links(c.joins.size()),
        alpha_acts(c.alphas.size(), 0),
        join_acts(c.joins.size(), 0) {
    // The dummy top store holds the dummy token for the network's whole life.
    dummy_token = tokens.acquire();
    store_tokens[0].push_back(dummy_token);
    reset_links();
  }

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

  [[nodiscard]] RightIndex& right_index(const JoinNode& j) {
    return right_indexes[c.alphas[j.alpha].first_right_index + j.right_ord];
  }

  // ------------------------------- allocation -----------------------------

  Token* new_token(Token* parent, const Wme* wme, WmeRecord* wrec, std::uint32_t store) {
    Token* t = tokens.acquire();
    t->children.clear();  // clear, don't reassign: keep any spill
    t->join_results.clear();
    t->left_pos.clear();
    t->left_pos.resize(c.stores[store].left_specs.size());
    t->parent = parent;
    t->wme = wme;
    t->wrec = wrec;
    t->store = store;
    if (parent != nullptr) {
      t->pos_in_parent = static_cast<std::uint32_t>(parent->children.size());
      parent->children.push_back(t);
    }
    if (wrec != nullptr) {
      t->pos_in_wrec = static_cast<std::uint32_t>(wrec->tokens.size());
      wrec->tokens.push_back(t);
    }
    std::vector<Token*>& members = store_tokens[store];
    t->pos_in_node = static_cast<std::uint32_t>(members.size());
    members.push_back(t);
    ++counters.tokens_created;
    counters.match_cost += util::cost::kTokenOp;
    if (++live_tokens > peak_live_tokens) peak_live_tokens = live_tokens;
    return t;
  }

  void charge_token_free() {
    ++counters.tokens_deleted;
    counters.match_cost += util::cost::kTokenOp;
    --live_tokens;
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
    counters.match_cost += util::cost::kNegativeOp;
    return jr;
  }

  void free_jr(NegJoinResult* jr) {
    counters.match_cost += util::cost::kNegativeOp;
    join_results.release(jr);
  }

  WmeRecord* make_record(const Wme& w) {
    const std::span<const Value> vals = w.slots();
    // Match tests read slots unchecked, up to the class's arity.
    if (w.class_index() < c.program.class_count() &&
        vals.size() != c.program.wme_class(w.class_index()).arity()) {
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

  [[nodiscard]] bool alpha_passes(const AlphaNode& p, const WmeRecord& w) {
    for (const auto& t : p.const_tests) {
      ++counters.alpha_tests;
      counters.match_cost += util::cost::kAlphaTest;
      if (!apply_predicate(t.pred, rec_slot(w, t.slot), t.value)) return false;
    }
    for (const auto& t : p.intra_tests) {
      ++counters.alpha_tests;
      counters.match_cost += util::cost::kAlphaTest;
      if (!apply_predicate(t.pred, rec_slot(w, t.slot), rec_slot(w, t.other_slot))) return false;
    }
    for (const auto& t : p.disj_tests) {
      ++counters.alpha_tests;
      counters.match_cost += util::cost::kAlphaTest * static_cast<util::WorkUnits>(t.values.size());
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
    counters.match_cost += util::cost::kJoinProbe +
                           util::cost::kJoinTest * static_cast<util::WorkUnits>(tests.size());
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

  /// Physical upkeep of a store's shared left indexes (uncharged: the
  /// per-successor join_test charges are levied by the caller per *linked*
  /// indexed child, preserving the cost model's per-successor accounting).
  void index_token(const StoreNode& store, Token* t) {
    for (std::uint32_t ord = 0; ord < store.left_specs.size(); ++ord) {
      const StoreNode::LeftSpec& spec = store.left_specs[ord];
      auto& bucket = bucket_of(left_indexes[store.first_left_index + ord], left_bucket_pool,
                               rec_slot(*wme_up(t, spec.levels_up), spec.token_slot));
      t->left_pos[ord] = static_cast<std::uint32_t>(bucket.size());
      bucket.push_back(t);
    }
  }

  void unindex_token(const StoreNode& store, Token* t) {
    for (std::uint32_t ord = 0; ord < store.left_specs.size(); ++ord) {
      const StoreNode::LeftSpec& spec = store.left_specs[ord];
      swap_erase(left_indexes[store.first_left_index + ord].at(
                     rec_slot(*wme_up(t, spec.levels_up), spec.token_slot)),
                 t->left_pos[ord],
                 [ord](Token* moved, std::uint32_t p) { moved->left_pos[ord] = p; });
    }
  }

  // ------------------------- unlink transitions ---------------------------
  //
  // Pure flag flips: the shared indexes are always maintained, so a link
  // transition costs O(successors) flag writes — oscillating a memory
  // between empty and nonempty (streaming retraction churn) never rebuilds
  // anything.

  /// `am` just went empty -> nonempty (relink) or nonempty -> empty:
  /// successor joins resume or stop left activations (negatives never
  /// left-unlink).
  void set_left_links(const AlphaNode& am, bool linked) {
    for (const std::uint32_t j : am.join_successors) links[j].left = linked;
  }

  /// `store` just gained its first token (relink) or lost its last: child
  /// joins, and the store itself when negative, resume or stop right
  /// activations.
  void set_right_links(const StoreNode& store, bool linked) {
    for (const std::uint32_t j : store.join_children) links[j].right = linked;
    if (store.kind == BetaKind::Negative) links[store.join].right = linked;
  }

  // ------------------------------ activation ------------------------------

  void left_activate(std::uint32_t s, Token* parent, const Wme* wme, WmeRecord* wrec) {
    const StoreNode& node = c.stores[s];
    switch (node.kind) {
      case BetaKind::Memory: {
        Token* t = new_token(parent, wme, wrec, s);
        if (store_tokens[s].size() == 1) set_right_links(node, true);
        index_token(node, t);
        for (const std::uint32_t j : node.join_children) {
          if (c.joins[j].index_test >= 0 && links[j].left) {
            counters.match_cost += util::cost::kJoinTest;  // per-successor index upkeep
          }
        }
        for (const std::uint32_t j : node.join_children) {
          if (links[j].left) join_left_activate(j, t);
        }
        break;
      }
      case BetaKind::Negative: {
        ++join_acts[node.join];
        const JoinNode& neg = c.joins[node.join];
        Token* t = new_token(parent, wme, wrec, s);
        if (store_tokens[s].size() == 1) set_right_links(node, true);
        // Compute blockers against the negative CE's alpha memory. Indexed
        // candidates come straight from the shared right-index bucket — no
        // snapshot copy: propagation cannot mutate the bucket (see the
        // in_delta guard).
        if (neg.index_test >= 0) {
          counters.match_cost += util::cost::kJoinTest;
          index_token(node, t);
          const RightIndex& right = right_index(neg);
          const auto it = right.find(token_key(neg, t));
          if (it != right.end()) {
            for (const RightEntry& e : it->second) {
              if (join_passes(neg.tests, t, *e.rec)) new_jr(t, e.rec);
            }
          }
        } else {
          for (const AmItem& e : alpha_items[neg.alpha]) {
            if (join_passes(neg.tests, t, *e.rec)) new_jr(t, e.rec);
          }
        }
        if (t->join_results.empty()) emit_from_store(node, t);
        break;
      }
      case BetaKind::Production: {
        Token* t = new_token(parent, wme, wrec, s);
        counters.match_cost += util::cost::kConflictSetOp;
        listener.on_activate(*node.production, wmes_of(t));
        break;
      }
    }
  }

  /// Propagate a store token downstream (new BM token is handled inside
  /// Memory's case; this is for negative-node unblocking and NEG chains).
  void emit_from_store(const StoreNode& store, Token* t) {
    for (const std::uint32_t j : store.join_children) {
      if (links[j].left) join_left_activate(j, t);
    }
    for (const std::uint32_t child : store.left_children) {
      left_activate(child, t, nullptr, nullptr);
    }
  }

  void join_left_activate(std::uint32_t id, Token* t) {
    ++join_acts[id];
    const JoinNode& j = c.joins[id];
    if (j.index_test >= 0) {
      counters.match_cost += util::cost::kJoinTest;  // hash lookup
      const RightIndex& right = right_index(j);
      const auto it = right.find(token_key(j, t));
      if (it == right.end()) return;
      for (const RightEntry& e : it->second) {
        if (join_passes(j.tests, t, *e.rec)) {
          for (const std::uint32_t child : j.children) left_activate(child, t, e.rec->wme, e.rec);
        }
      }
      return;
    }
    for (const AmItem& e : alpha_items[j.alpha]) {
      if (join_passes(j.tests, t, *e.rec)) {
        for (const std::uint32_t child : j.children) left_activate(child, t, e.rec->wme, e.rec);
      }
    }
  }

  void join_right_activate(std::uint32_t id, WmeRecord& w) {
    ++join_acts[id];
    const JoinNode& j = c.joins[id];
    const StoreNode& parent = c.stores[j.store];
    if (j.index_test >= 0) {
      counters.match_cost += util::cost::kJoinTest;  // hash lookup
      const LeftIndex& left = left_indexes[parent.first_left_index + j.left_ord];
      const auto it = left.find(wme_key(j, w));
      if (it == left.end()) return;
      for (Token* t : it->second) {
        if (join_passes(j.tests, t, w)) {
          for (const std::uint32_t child : j.children) left_activate(child, t, w.wme, &w);
        }
      }
      return;
    }
    for (Token* t : store_tokens[j.store]) {
      // A negative store's blocked tokens are not in the active set.
      if (parent.kind == BetaKind::Negative && !t->join_results.empty()) continue;
      if (join_passes(j.tests, t, w)) {
        for (const std::uint32_t child : j.children) left_activate(child, t, w.wme, &w);
      }
    }
  }

  void negative_right_activate(std::uint32_t id, WmeRecord& w) {
    ++join_acts[id];
    const JoinNode& neg = c.joins[id];
    if (neg.index_test >= 0) {
      counters.match_cost += util::cost::kJoinTest;
      const LeftIndex& left = left_indexes[c.stores[neg.store].first_left_index];
      const auto it = left.find(wme_key(neg, w));
      if (it == left.end()) return;
      for (Token* t : it->second) negative_block(neg, t, w);
      return;
    }
    for (Token* t : store_tokens[neg.store]) negative_block(neg, t, w);
  }

  void negative_block(const JoinNode& neg, Token* t, WmeRecord& w) {
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
    const StoreNode& node = c.stores[t->store];
    if (node.kind == BetaKind::Memory) {
      unindex_token(node, t);
      for (const std::uint32_t j : node.join_children) {
        if (c.joins[j].index_test >= 0 && links[j].left) {
          counters.match_cost += util::cost::kJoinTest;  // per-successor index upkeep
        }
      }
    }
    if (node.kind == BetaKind::Production) {
      counters.match_cost += util::cost::kConflictSetOp;
      listener.on_deactivate(*node.production, wmes_of(t));
    }
    if (node.kind == BetaKind::Negative) {
      for (NegJoinResult* jr : t->join_results) {
        swap_erase(jr->wrec->neg_results, jr->pos_in_wrec,
                   [](NegJoinResult* moved, std::uint32_t p) { moved->pos_in_wrec = p; });
        free_jr(jr);
      }
      t->join_results.clear();
      if (c.joins[node.join].index_test >= 0) {
        counters.match_cost += util::cost::kJoinTest;
        unindex_token(node, t);
      }
    }
    std::vector<Token*>& members = store_tokens[t->store];
    swap_erase(members, t->pos_in_node,
               [](Token* moved, std::uint32_t p) { moved->pos_in_node = p; });
    if (members.empty()) set_right_links(node, false);
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
    counters.match_cost += util::cost::kAlphaTest * n;
    if (record_chunks) chunks.insert(chunks.end(), n, util::cost::kAlphaTest);
  }

  /// The per-successor right-index upkeep charges of a memory's linked
  /// indexed successors, on both an add and a remove.
  void charge_right_upkeep(const AlphaNode& am) {
    for (const auto* successors : {&am.join_successors, &am.negative_successors}) {
      for (const std::uint32_t j : *successors) {
        if (c.joins[j].index_test >= 0 && links[j].right) {
          counters.match_cost += util::cost::kJoinTest;
        }
      }
    }
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
    if (w.class_index() >= c.dispatch.size()) return;
    const ClassDispatch& d = c.dispatch[w.class_index()];
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
      const std::uint32_t a = d.patterns[pos];
      const AlphaNode& am = c.alphas[a];
      const util::WorkUnits before = counters.match_cost;
      if (alpha_passes(am, *rec)) {
        ++counters.alpha_activations;
        ++alpha_acts[a];
        counters.match_cost += util::cost::kAlphaMemInsert;
        std::vector<AmItem>& items = alpha_items[a];
        const auto am_slot = static_cast<std::uint32_t>(rec->alpha_mems.size());
        const auto right_base = static_cast<std::uint32_t>(rec->right_pos.size());
        rec->alpha_mems.push_back({a, static_cast<std::uint32_t>(items.size()), right_base});
        items.push_back({rec, am_slot});
        rec->right_pos.resize(right_base + am.index_slots.size());
        if (items.size() == 1) set_left_links(am, true);
        // Physical upkeep of the shared right indexes (uncharged), then the
        // per-successor upkeep charges for linked indexed successors.
        for (std::uint32_t ord = 0; ord < am.index_slots.size(); ++ord) {
          auto& bucket = bucket_of(right_indexes[am.first_right_index + ord], right_bucket_pool,
                                   rec_slot(*rec, am.index_slots[ord]));
          const std::uint32_t ps = right_base + ord;
          rec->right_pos[ps] = static_cast<std::uint32_t>(bucket.size());
          bucket.push_back({rec, ps});
        }
        charge_right_upkeep(am);
        for (const std::uint32_t neg : am.negative_successors) {
          if (links[neg].right) negative_right_activate(neg, *rec);
        }
        for (const std::uint32_t j : am.join_successors) {
          if (links[j].right) join_right_activate(j, *rec);
        }
      }
      if (record_chunks) chunks.push_back(counters.match_cost - before);
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
      counters.match_cost += util::cost::kAlphaMemInsert;
      const AlphaNode& am = c.alphas[ref.alpha];
      std::vector<AmItem>& items = alpha_items[ref.alpha];
      swap_erase(items, ref.item_pos, [](const AmItem& moved, std::uint32_t p) {
        moved.rec->alpha_mems[moved.am_slot].item_pos = p;
      });
      for (std::uint32_t ord = 0; ord < am.index_slots.size(); ++ord) {
        swap_erase(right_indexes[am.first_right_index + ord].at(
                       rec_slot(*rec, am.index_slots[ord])),
                   rec->right_pos[ref.right_base + ord],
                   [](const RightEntry& moved, std::uint32_t p) {
                     moved.rec->right_pos[moved.pos_slot] = p;
                   });
      }
      charge_right_upkeep(am);
      if (items.empty()) set_left_links(am, false);
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
      if (owner->join_results.empty()) emit_from_store(c.stores[owner->store], owner);  // unblocked
    }

    // Propagation never adds or removes a WME (the delta guard), so `at`
    // still names the record's slot.
    wme_index.erase(at);
    recycle_record(rec);
    if (record_chunks) chunks.push_back(counters.match_cost - before);
  }

  void clear() {
    if (in_delta) throw std::logic_error("re-entrant WME mutation during match propagation");
    // Structural teardown of all match state; no listener callbacks (the
    // engine resets its conflict set alongside). Buckets, tokens, records,
    // and join results all return to their pools with capacity intact. The
    // dummy token is charged like the others, as it always was, but stays.
    for (std::vector<Token*>& members : store_tokens) {
      for (Token* t : members) {
        for (NegJoinResult* jr : t->join_results) join_results.release(jr);
        t->join_results.clear();
        if (t == dummy_token) {
          charge_token_free();
        } else {
          free_token(t);
        }
      }
      members.clear();
    }
    for (LeftIndex& index : left_indexes) release_index(index);
    for (std::vector<AmItem>& items : alpha_items) items.clear();
    for (RightIndex& index : right_indexes) release_index(index);
    wme_index.for_each([this](WmeRecord& rec) { recycle_record(&rec); });
    wme_index.clear();
    store_tokens[0].push_back(dummy_token);
    dummy_token->pos_in_node = 0;
    dummy_token->children.clear();
    chunks.clear();
    reset_links();
    // Back to the post-construction state: only the dummy token is alive and
    // it is not gauge-counted (it was allocated outside new_token). The peak
    // deliberately survives clear() — it is a lifetime high-water mark.
    live_tokens = 0;
  }

  /// Link flags for the current (empty or post-clear) memory contents. The
  /// dummy store always holds the dummy token, so depth-0 joins stay
  /// right-linked for the network's whole life.
  void reset_links() {
    for (std::uint32_t id = 0; id < c.joins.size(); ++id) {
      const JoinNode& j = c.joins[id];
      links[id].right = !store_tokens[j.store].empty();
      if (!j.negated) links[id].left = !alpha_items[j.alpha].empty();
    }
  }

  // ------------------------------ invariants ------------------------------

  [[nodiscard]] std::vector<std::string> check_invariants() const {
    std::vector<std::string> out;
    const auto fail = [&out](std::string msg) { out.push_back(std::move(msg)); };

    // The state arrays are laid out by the compiled node counts.
    if (alpha_items.size() != c.alphas.size() || right_indexes.size() != c.right_indexes ||
        store_tokens.size() != c.stores.size() || left_indexes.size() != c.left_indexes ||
        links.size() != c.joins.size() || alpha_acts.size() != c.alphas.size() ||
        join_acts.size() != c.joins.size()) {
      fail("match state arrays desync from the compiled node counts");
      return out;
    }

    // Token trees, position back-pointers, and join-result cross-links.
    std::uint64_t total_tokens = 0;
    for (std::uint32_t s = 0; s < c.stores.size(); ++s) {
      const std::string where = "beta node " + std::to_string(s);
      const std::vector<Token*>& members = store_tokens[s];
      for (std::uint32_t i = 0; i < members.size(); ++i) {
        const Token* t = members[i];
        ++total_tokens;
        if (t->pos_in_node != i || t->store != s) fail(where + ": token position desync");
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
        for (std::uint32_t ch = 0; ch < t->children.size(); ++ch) {
          if (t->children[ch]->parent != t || t->children[ch]->pos_in_parent != ch) {
            fail(where + ": child back-pointer desync");
          }
        }
        if (c.stores[s].kind != BetaKind::Negative && !t->join_results.empty()) {
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
    }

    // Record values and alpha-memory membership.
    wme_index.for_each([&](const WmeRecord& r) {
      const WmeRecord* rec = &r;
      if (wme_index[find_record(rec->wme)] != rec) fail("record not reachable from its WME");
      if (rec->vals != rec->wme->slots().data()) fail("record values desync from its WME");
      for (std::uint32_t i = 0; i < rec->alpha_mems.size(); ++i) {
        const WmeRecord::AmRef& ref = rec->alpha_mems[i];
        if (ref.alpha >= alpha_items.size() || ref.item_pos >= alpha_items[ref.alpha].size() ||
            alpha_items[ref.alpha][ref.item_pos].rec != rec ||
            alpha_items[ref.alpha][ref.item_pos].am_slot != i) {
          fail("alpha-memory item position desync");
        }
      }
    });

    // Shared-index mirrors: always maintained, independent of link state.
    for (std::uint32_t a = 0; a < c.alphas.size(); ++a) {
      const AlphaNode& am = c.alphas[a];
      const std::string who = "alpha memory " + std::to_string(a);
      for (std::uint32_t ord = 0; ord < am.index_slots.size(); ++ord) {
        std::size_t entries = 0;
        for (const auto& [key, bucket] : right_indexes[am.first_right_index + ord]) {
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
        if (entries != alpha_items[a].size()) fail(who + ": right index does not mirror items");
      }
    }
    for (std::uint32_t s = 0; s < c.stores.size(); ++s) {
      const StoreNode& node = c.stores[s];
      const std::string who = "beta node " + std::to_string(s);
      for (std::uint32_t ord = 0; ord < node.left_specs.size(); ++ord) {
        const StoreNode::LeftSpec& spec = node.left_specs[ord];
        std::size_t entries = 0;
        for (const auto& [key, bucket] : left_indexes[node.first_left_index + ord]) {
          for (std::uint32_t i = 0; i < bucket.size(); ++i) {
            ++entries;
            Token* t = bucket[i];
            if (t->store != s) fail(who + ": left entry from foreign store");
            if (!(rec_slot(*wme_up(t, spec.levels_up), spec.token_slot) == key)) {
              fail(who + ": left entry under wrong key");
            }
            if (ord >= t->left_pos.size() || t->left_pos[ord] != i) {
              fail(who + ": left entry position desync");
            }
          }
        }
        if (entries != store_tokens[s].size()) fail(who + ": left index does not mirror tokens");
      }
    }

    // Link flags mirror the opposite memory's emptiness.
    for (std::uint32_t id = 0; id < c.joins.size(); ++id) {
      const JoinNode& j = c.joins[id];
      const std::string who = (j.negated ? "negative node " : "join ") + std::to_string(id);
      if (links[id].right != !store_tokens[j.store].empty()) {
        fail(who + ": right link flag desync");
      }
      if (!j.negated && links[id].left != !alpha_items[j.alpha].empty()) {
        fail(who + ": left link flag desync");
      }
    }

    const bool dummy_alive = !store_tokens[0].empty() && store_tokens[0].front() == dummy_token;
    if (live_tokens != total_tokens - (dummy_alive ? 1 : 0)) {
      fail("live token gauge desync");
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::shared_ptr<const CompiledNetwork> require_compiled(
    std::shared_ptr<const CompiledNetwork> compiled) {
  if (compiled == nullptr) throw std::invalid_argument("Rete network needs a compiled network");
  return compiled;
}

}  // namespace

Network::Network(std::shared_ptr<const CompiledNetwork> compiled, MatchListener& listener,
                 util::WorkCounters& counters, bool record_chunks)
    : impl_(std::make_unique<Impl>(require_compiled(std::move(compiled)), listener, counters,
                                   record_chunks)) {}

Network::Network(const ops5::Program& program, MatchListener& listener,
                 util::WorkCounters& counters, const NetworkOptions& options)
    : Network(std::make_shared<const CompiledNetwork>(program, options), listener, counters) {}

Network::~Network() = default;

void Network::add_wme(const ops5::Wme& wme) { impl_->add_wme(wme); }

void Network::remove_wme(const ops5::Wme& wme) { impl_->remove_wme(wme); }

void Network::clear() { impl_->clear(); }

const CompiledNetwork& Network::compiled() const noexcept { return *impl_->compiled; }

std::vector<util::WorkUnits> Network::take_chunks() {
  return std::exchange(impl_->chunks, {});
}

std::uint64_t Network::peak_live_tokens() const noexcept {
  return impl_->peak_live_tokens;
}

std::uint64_t Network::live_tokens() const noexcept { return impl_->live_tokens; }

NodeActivations Network::node_activations() const {
  return {impl_->alpha_acts, impl_->join_acts};
}

std::vector<std::string> Network::check_invariants() const {
  return impl_->check_invariants();
}

}  // namespace psmsys::rete
