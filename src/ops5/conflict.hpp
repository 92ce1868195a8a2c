#pragma once

// Conflict set and conflict-resolution strategies (LEX and MEA).
//
// The recognize-act cycle's resolve phase is the synchronization point that
// limits match parallelism (Section 3.1, limit 1). The conflict set keeps an
// ordered index of unfired instantiations (as ParaOPS5's optimized C
// implementation did), so selection is O(log n); the engine charges resolve
// cost accordingly.

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "ops5/production.hpp"
#include "ops5/wme.hpp"

namespace psmsys::ops5 {

/// A satisfied production: the production plus the WMEs matching its
/// positive CEs, in CE order.
struct Instantiation {
  const Production* production = nullptr;
  std::vector<const Wme*> wmes;
  /// Timetags sorted descending — the LEX recency key, precomputed on entry.
  std::vector<TimeTag> recency;
  /// Creation sequence number; final deterministic tie-break.
  std::uint64_t seq = 0;
  /// Refraction: an instantiation fires at most once while it remains in
  /// the conflict set.
  bool fired = false;
};

enum class Strategy : std::uint8_t { Lex, Mea };

/// Strict weak ordering: does `a` dominate `b` under the strategy?
[[nodiscard]] bool dominates(const Instantiation& a, const Instantiation& b, Strategy strategy);

/// The conflict set: all current instantiations, with O(1) add/remove by
/// (production, matched WMEs) identity and an ordered index of unfired
/// instantiations for O(log n) selection.
class ConflictSet {
 public:
  explicit ConflictSet(Strategy strategy = Strategy::Lex);

  /// Add an instantiation (called by the matcher on production activation).
  void add(const Production& production, std::vector<const Wme*> wmes);

  /// Remove the instantiation for this exact (production, wmes) match.
  /// Called by the matcher on retraction; must exist.
  void remove(const Production& production, std::span<const Wme* const> wmes);

  /// Pick the dominant unfired instantiation, or nullptr if none. Marks the
  /// winner as fired.
  [[nodiscard]] const Instantiation* select();

  /// Undo select() for the instantiation of this exact (production, wmes)
  /// match, provided it is still the object created with sequence number
  /// `seq` and has fired: it becomes selectable again. Otherwise a no-op.
  /// Rollback uses this to restore refraction.
  void rearm(const Production& production, std::span<const Wme* const> wmes,
             std::uint64_t seq);

  /// Sequence number the next added instantiation will get. Every
  /// instantiation alive now has a smaller one.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

  [[nodiscard]] Strategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t unfired() const noexcept { return unfired_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// All current instantiations (unspecified order); used by tests/oracle.
  [[nodiscard]] std::vector<const Instantiation*> snapshot() const;

  void clear();

 private:
  struct Key {
    std::uint32_t production_id;
    std::vector<const Wme*> wmes;
    [[nodiscard]] bool operator==(const Key& o) const noexcept {
      return production_id == o.production_id && wmes == o.wmes;
    }
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = k.production_id * 0x9e3779b97f4a7c15ULL;
      for (const auto* w : k.wmes) {
        h ^= reinterpret_cast<std::size_t>(w) + 0x9e3779b9 + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  struct Dominance {
    Strategy strategy;
    [[nodiscard]] bool operator()(const Instantiation* a, const Instantiation* b) const {
      return dominates(*a, *b, strategy);
    }
  };

  Strategy strategy_;
  std::unordered_map<Key, std::unique_ptr<Instantiation>, KeyHash> entries_;
  std::set<Instantiation*, Dominance> unfired_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace psmsys::ops5
