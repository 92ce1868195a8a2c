#pragma once

// Conflict set and conflict-resolution strategies (LEX and MEA).
//
// The recognize-act cycle's resolve phase is the synchronization point that
// limits match parallelism (Section 3.1, limit 1). The conflict set keeps an
// ordered index of unfired instantiations (as ParaOPS5's optimized C
// implementation did), so selection is O(log n); the engine charges resolve
// cost accordingly.

#include <cstdint>
#include <span>
#include <vector>

#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "util/open_table.hpp"
#include "util/pool.hpp"
#include "util/small_vec.hpp"

namespace psmsys::ops5 {

/// A satisfied production: the production plus the WMEs matching its
/// positive CEs, in CE order. Both arrays are as wide as the production's
/// positive-CE count, and hold up to kInlineCes inline: every production of
/// the SPAM phase programs has at most 3 positive CEs.
struct Instantiation {
  static constexpr std::uint32_t kInlineCes = 3;

  const Production* production = nullptr;
  util::SmallVec<const Wme*, kInlineCes> wmes;
  /// Timetags sorted descending — the LEX recency key, precomputed on entry.
  util::SmallVec<TimeTag, kInlineCes> recency;
  /// Creation sequence number; final deterministic tie-break.
  std::uint64_t seq = 0;
  /// Refraction: an instantiation fires at most once while it remains in
  /// the conflict set.
  bool fired = false;
};

enum class Strategy : std::uint8_t { Lex, Mea };

/// Does `a` dominate `b` under the strategy? A strict total order on the
/// instantiations of one conflict set, whose sequence numbers are unique.
[[nodiscard]] bool dominates(const Instantiation& a, const Instantiation& b, Strategy strategy);

/// The conflict set: all current instantiations, with O(1) add/remove by
/// (production, matched WMEs) identity and an ordered index of unfired
/// instantiations for O(log n) selection.
///
/// Instantiations live in pooled records that hold their arrays inline,
/// identity lookups go through an open-addressed table of record pointers,
/// and the unfired index is a binary heap of record pointers in which each
/// record knows its position. So in steady state an add, a remove, a select
/// or a rearm allocates nothing and copies no key.
class ConflictSet {
 public:
  explicit ConflictSet(Strategy strategy = Strategy::Lex);

  /// Add an instantiation (called by the matcher on production activation).
  /// The WMEs are copied; the span need only be valid during the call.
  /// Throws std::logic_error, leaving the set unchanged, if this exact
  /// (production, wmes) match is already present.
  void add(const Production& production, std::span<const Wme* const> wmes);

  /// Remove the instantiation for this exact (production, wmes) match.
  /// Called by the matcher on retraction; must exist (std::logic_error
  /// otherwise, with the set unchanged).
  void remove(const Production& production, std::span<const Wme* const> wmes);

  /// Pick the dominant unfired instantiation, or nullptr if none. Marks the
  /// winner as fired. The pointer is valid until that instantiation is
  /// removed (or clear()). Records are recycled, so a stale pointer reads
  /// whatever instantiation reuses the record, never freed memory:
  /// AddressSanitizer cannot catch it.
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
  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }
  [[nodiscard]] std::size_t unfired() const noexcept { return unfired_.size(); }
  [[nodiscard]] bool empty() const noexcept { return table_.empty(); }

  /// All current instantiations (unspecified order); used by tests/oracle.
  [[nodiscard]] std::vector<const Instantiation*> snapshot() const;

  /// Remove every instantiation (their records return to the pool) and
  /// restart sequence numbers.
  void clear();

 private:
  /// A pooled instantiation.
  struct Record {
    Instantiation inst;
    std::uint64_t hash = 0;       ///< identity hash of (production id, wmes)
    std::uint32_t heap_pos = 0;   ///< position in unfired_ while unfired
  };

  struct RecordHash {
    [[nodiscard]] std::uint64_t operator()(const Record& rec) const noexcept { return rec.hash; }
  };
  /// Table slot holding this identity, or the empty slot its probe run ends at.
  [[nodiscard]] std::size_t find_slot(std::uint64_t hash, std::uint32_t production_id,
                                      std::span<const Wme* const> wmes) const;

  // The unfired index: a binary heap in which every record dominates its
  // children, so the root is the one select() returns.
  [[nodiscard]] bool above(const Record* a, const Record* b) const {
    return dominates(a->inst, b->inst, strategy_);
  }
  /// Store `rec` at heap position `pos`.
  void place(Record* rec, std::size_t pos) noexcept {
    unfired_[pos] = rec;
    rec->heap_pos = static_cast<std::uint32_t>(pos);
  }
  void heap_push(Record* rec);
  /// Take the record at `pos` out of the heap.
  void heap_erase(std::size_t pos);
  /// Move `rec`, which belongs at or above `pos`, up to where it dominates
  /// its parent, shifting the records it passes down.
  void sift_up(Record* rec, std::size_t pos);
  /// Move `rec`, which belongs at or below `pos`, down to where it dominates
  /// its children, shifting the records it passes up.
  void sift_down(Record* rec, std::size_t pos);

  Strategy strategy_;
  util::Pool<Record> pool_;
  /// Identity table over the live records.
  util::OpenTable<Record, RecordHash> table_;
  std::vector<Record*> unfired_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace psmsys::ops5
