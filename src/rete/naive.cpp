#include "rete/naive.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "ops5/bindings.hpp"

namespace psmsys::rete {

namespace {

using ops5::Predicate;
using ops5::Value;
using ops5::VariableId;
using ops5::Wme;

struct MatchKey {
  std::uint32_t production_id = 0;
  std::vector<const Wme*> wmes;
  [[nodiscard]] bool operator==(const MatchKey&) const = default;
};

struct MatchKeyHash {
  [[nodiscard]] std::size_t operator()(const MatchKey& k) const noexcept {
    std::size_t h = k.production_id * 0x9e3779b97f4a7c15ULL;
    for (const auto* w : k.wmes) {
      h ^= reinterpret_cast<std::size_t>(w) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

struct NaiveMatcher::Impl {
  const ops5::Program& program;
  MatchListener& listener;
  util::WorkCounters& counters;

  /// Live WMEs grouped by class.
  std::vector<std::vector<const Wme*>> wm_by_class;

  /// Current match set (mirror of what has been reported to the listener).
  std::unordered_set<MatchKey, MatchKeyHash> current;

  Impl(const ops5::Program& prog, MatchListener& lst, util::WorkCounters& ctr)
      : program(prog), listener(lst), counters(ctr) {
    wm_by_class.resize(program.class_count());
  }

  [[nodiscard]] bool test_passes(const ops5::AttrTest& test, const Wme& w,
                                 const std::unordered_map<VariableId, Value>& env) {
    ++counters.alpha_tests;
    counters.match_cost += util::cost::kAlphaTest;
    if (!test.is_variable) {
      return ops5::constant_test_passes(test, w.slot(test.slot));
    }
    const auto it = env.find(test.var);
    if (it == env.end()) return true;  // binding occurrence; caller records it
    return apply_predicate(test.pred, w.slot(test.slot), it->second);
  }

  /// Does `w` satisfy `ce` under (and extending) `env`? On success with
  /// `bind`, first occurrences are added to env.
  [[nodiscard]] bool ce_matches(const ops5::ConditionElement& ce, const Wme& w,
                                std::unordered_map<VariableId, Value>& env, bool bind) {
    ++counters.join_probes;
    counters.match_cost += util::cost::kJoinProbe;
    std::unordered_map<VariableId, Value> local;
    for (const auto& test : ce.tests) {
      if (test.is_variable && !env.contains(test.var)) {
        // Within-CE repeated variables must agree.
        ++counters.alpha_tests;
        counters.match_cost += util::cost::kAlphaTest;
        const auto it = local.find(test.var);
        if (it == local.end()) {
          local.emplace(test.var, w.slot(test.slot));
          continue;
        }
        if (!apply_predicate(test.pred, w.slot(test.slot), it->second)) return false;
        continue;
      }
      if (!test_passes(test, w, env)) return false;
    }
    if (bind) {
      for (auto& [var, value] : local) env.emplace(var, value);
    }
    return true;
  }

  void enumerate(const ops5::Production& production, std::size_t ce_pos,
                 std::unordered_map<VariableId, Value>& env, std::vector<const Wme*>& partial,
                 std::unordered_set<MatchKey, MatchKeyHash>& out) {
    const auto lhs = production.lhs();
    if (ce_pos == lhs.size()) {
      out.insert(MatchKey{production.id(), partial});
      counters.match_cost += util::cost::kConflictSetOp;
      return;
    }
    const auto& ce = lhs[ce_pos];
    const auto& candidates = wm_by_class[ce.cls];
    if (ce.negated) {
      for (const Wme* w : candidates) {
        auto probe_env = env;
        if (ce_matches(ce, *w, probe_env, /*bind=*/false)) return;  // blocked
      }
      enumerate(production, ce_pos + 1, env, partial, out);
      return;
    }
    for (const Wme* w : candidates) {
      auto child_env = env;
      if (!ce_matches(ce, *w, child_env, /*bind=*/true)) continue;
      partial.push_back(w);
      enumerate(production, ce_pos + 1, child_env, partial, out);
      partial.pop_back();
    }
  }

  void recompute() {
    std::unordered_set<MatchKey, MatchKeyHash> next;
    for (const auto& production : program.productions()) {
      std::unordered_map<VariableId, Value> env;
      std::vector<const Wme*> partial;
      enumerate(production, 0, env, partial, next);
    }
    // Emit deltas relative to the previous match set.
    for (const auto& key : current) {
      if (!next.contains(key)) {
        listener.on_deactivate(program.productions()[key.production_id], key.wmes);
      }
    }
    for (const auto& key : next) {
      if (!current.contains(key)) {
        listener.on_activate(program.productions()[key.production_id], key.wmes);
      }
    }
    current = std::move(next);
  }
};

NaiveMatcher::NaiveMatcher(const ops5::Program& program, MatchListener& listener,
                           util::WorkCounters& counters)
    : impl_(std::make_unique<Impl>(program, listener, counters)) {
  if (!program.frozen()) throw std::invalid_argument("NaiveMatcher requires a frozen Program");
}

NaiveMatcher::~NaiveMatcher() = default;

void NaiveMatcher::add_wme(const ops5::Wme& wme) {
  auto& bucket = impl_->wm_by_class.at(wme.class_index());
  if (std::find(bucket.begin(), bucket.end(), &wme) != bucket.end()) {
    throw std::logic_error("WME added twice to NaiveMatcher");
  }
  bucket.push_back(&wme);
  impl_->recompute();
}

void NaiveMatcher::remove_wme(const ops5::Wme& wme) {
  auto& bucket = impl_->wm_by_class.at(wme.class_index());
  const auto it = std::find(bucket.begin(), bucket.end(), &wme);
  if (it == bucket.end()) throw std::logic_error("removing WME not in NaiveMatcher");
  bucket.erase(it);
  impl_->recompute();
}

void NaiveMatcher::clear() {
  for (auto& bucket : impl_->wm_by_class) bucket.clear();
  impl_->current.clear();
}

}  // namespace psmsys::rete
