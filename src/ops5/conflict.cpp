#include "ops5/conflict.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace psmsys::ops5 {

namespace {

/// Lexicographic comparison of descending-sorted recency vectors.
/// Returns +1 if a is more recent, -1 if b is, 0 if equal.
[[nodiscard]] int compare_recency(std::span<const TimeTag> a, std::span<const TimeTag> b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] > b[i] ? 1 : -1;
  }
  if (a.size() != b.size()) return a.size() > b.size() ? 1 : -1;
  return 0;
}

}  // namespace

bool dominates(const Instantiation& a, const Instantiation& b, Strategy strategy) {
  if (strategy == Strategy::Mea) {
    // MEA: recency of the WME matching the *first* CE takes precedence.
    const TimeTag ta = a.wmes.empty() ? 0 : a.wmes.front()->timetag();
    const TimeTag tb = b.wmes.empty() ? 0 : b.wmes.front()->timetag();
    if (ta != tb) return ta > tb;
  }
  // LEX: full recency ordering.
  if (const int c = compare_recency(a.recency, b.recency); c != 0) return c > 0;
  // Specificity.
  const std::size_t sa = a.production->specificity();
  const std::size_t sb = b.production->specificity();
  if (sa != sb) return sa > sb;
  // Deterministic arbitrary tie-break: earliest-created wins.
  return a.seq < b.seq;
}

ConflictSet::ConflictSet(Strategy strategy)
    : strategy_(strategy), unfired_(Dominance{strategy}) {}

void ConflictSet::add(const Production& production, std::vector<const Wme*> wmes) {
  auto inst = std::make_unique<Instantiation>();
  inst->production = &production;
  inst->recency.reserve(wmes.size());
  for (const auto* w : wmes) inst->recency.push_back(w->timetag());
  std::sort(inst->recency.begin(), inst->recency.end(), std::greater<>());
  inst->seq = next_seq_++;
  Key key{production.id(), wmes};
  inst->wmes = std::move(wmes);
  Instantiation* raw = inst.get();
  const auto [it, inserted] = entries_.emplace(std::move(key), std::move(inst));
  if (!inserted) {
    throw std::logic_error("duplicate instantiation added to conflict set");
  }
  unfired_.insert(raw);
}

void ConflictSet::remove(const Production& production, std::span<const Wme* const> wmes) {
  Key key{production.id(), std::vector<const Wme*>(wmes.begin(), wmes.end())};
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::logic_error("removing instantiation not present in conflict set");
  }
  if (!it->second->fired) unfired_.erase(it->second.get());
  entries_.erase(it);
}

const Instantiation* ConflictSet::select() {
  if (unfired_.empty()) return nullptr;
  Instantiation* best = *unfired_.begin();
  unfired_.erase(unfired_.begin());
  best->fired = true;
  return best;
}

void ConflictSet::rearm(const Production& production, std::span<const Wme* const> wmes,
                        std::uint64_t seq) {
  const Key key{production.id(), std::vector<const Wme*>(wmes.begin(), wmes.end())};
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Instantiation* inst = it->second.get();
  if (inst->seq != seq || !inst->fired) return;
  inst->fired = false;
  unfired_.insert(inst);
}

std::vector<const Instantiation*> ConflictSet::snapshot() const {
  std::vector<const Instantiation*> out;
  out.reserve(entries_.size());
  for (const auto& [key, inst] : entries_) out.push_back(inst.get());
  return out;
}

void ConflictSet::clear() {
  unfired_.clear();
  entries_.clear();
  next_seq_ = 0;
}

}  // namespace psmsys::ops5
