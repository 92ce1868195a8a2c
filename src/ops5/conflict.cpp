#include "ops5/conflict.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

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

/// Hash of an instantiation's identity: the production id and the matched
/// WME pointers in CE order. The final xor-shift folds high bits into the
/// low ones the table masks with.
[[nodiscard]] std::uint64_t identity_hash(std::uint32_t production_id,
                                          std::span<const Wme* const> wmes) noexcept {
  std::uint64_t h = (production_id + 1ULL) * 0x9e3779b97f4a7c15ULL;
  for (const Wme* w : wmes) {
    h ^= reinterpret_cast<std::uintptr_t>(w);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  return h;
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

ConflictSet::ConflictSet(Strategy strategy) : strategy_(strategy) {}

void ConflictSet::add(const Production& production, std::span<const Wme* const> wmes) {
  table_.reserve_one();
  const std::uint64_t hash = identity_hash(production.id(), wmes);
  const std::size_t slot = find_slot(hash, production.id(), wmes);
  if (table_[slot] != nullptr) {
    throw std::logic_error("duplicate instantiation added to conflict set");
  }
  Record* rec = pool_.acquire();
  Instantiation& inst = rec->inst;
  inst.production = &production;
  inst.wmes.assign(wmes.begin(), wmes.end());
  inst.recency.clear();
  for (const auto* w : wmes) inst.recency.push_back(w->timetag());
  std::sort(inst.recency.begin(), inst.recency.end(), std::greater<>());
  inst.seq = next_seq_++;
  inst.fired = false;
  rec->hash = hash;
  table_.fill(slot, rec);
  heap_push(rec);
}

void ConflictSet::remove(const Production& production, std::span<const Wme* const> wmes) {
  const std::size_t slot = find_slot(identity_hash(production.id(), wmes), production.id(), wmes);
  Record* rec = table_[slot];
  if (rec == nullptr) {
    throw std::logic_error("removing instantiation not present in conflict set");
  }
  if (!rec->inst.fired) heap_erase(rec->heap_pos);
  table_.erase(slot);
  pool_.release(rec);
}

const Instantiation* ConflictSet::select() {
  if (unfired_.empty()) return nullptr;
  Record* best = unfired_.front();
  heap_erase(0);
  best->inst.fired = true;
  return &best->inst;
}

void ConflictSet::rearm(const Production& production, std::span<const Wme* const> wmes,
                        std::uint64_t seq) {
  Record* rec = table_[find_slot(identity_hash(production.id(), wmes), production.id(), wmes)];
  if (rec == nullptr || rec->inst.seq != seq || !rec->inst.fired) return;
  rec->inst.fired = false;
  heap_push(rec);
}

std::vector<const Instantiation*> ConflictSet::snapshot() const {
  std::vector<const Instantiation*> out;
  out.reserve(table_.size());
  table_.for_each([&out](const Record& rec) { out.push_back(&rec.inst); });
  return out;
}

void ConflictSet::clear() {
  unfired_.clear();
  table_.clear();
  pool_.release_all();
  next_seq_ = 0;
}

std::size_t ConflictSet::find_slot(std::uint64_t hash, std::uint32_t production_id,
                                   std::span<const Wme* const> wmes) const {
  return table_.find_slot(hash, [&](const Record& rec) {
    return rec.hash == hash && rec.inst.production->id() == production_id &&
           std::equal(rec.inst.wmes.begin(), rec.inst.wmes.end(), wmes.begin(), wmes.end());
  });
}

void ConflictSet::heap_push(Record* rec) {
  unfired_.push_back(rec);
  sift_up(rec, unfired_.size() - 1);
}

void ConflictSet::heap_erase(std::size_t pos) {
  Record* last = unfired_.back();
  unfired_.pop_back();
  if (pos == unfired_.size()) return;  // `pos` was the last position
  // The last record fills the hole. It came from another subtree, so it may
  // belong above the hole as well as below it.
  if (pos > 0 && above(last, unfired_[(pos - 1) / 2])) {
    sift_up(last, pos);
  } else {
    sift_down(last, pos);
  }
}

void ConflictSet::sift_up(Record* rec, std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!above(rec, unfired_[parent])) break;
    place(unfired_[parent], pos);
    pos = parent;
  }
  place(rec, pos);
}

void ConflictSet::sift_down(Record* rec, std::size_t pos) {
  const std::size_t n = unfired_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && above(unfired_[child + 1], unfired_[child])) ++child;
    if (!above(unfired_[child], rec)) break;
    place(unfired_[child], pos);
    pos = child;
  }
  place(rec, pos);
}

}  // namespace psmsys::ops5
