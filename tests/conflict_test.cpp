#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <tuple>

#include "ops5/conflict.hpp"
#include "ops5/parser.hpp"
#include "util/rng.hpp"

// Heap allocations made by this thread while t_count_allocations is set,
// counted by the replaced global operator new below for
// SteadyStateAllocatesNothing. The replacements are kept out of line so that
// the compiler does not pair an inlined new with a visible free().
namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psmsys::ops5 {
namespace {

using Wmes = std::vector<const Wme*>;

/// Fixture providing a program with productions of different specificity and
/// a factory for WMEs with chosen timetags.
class ConflictSetTest : public ::testing::Test {
 protected:
  ConflictSetTest()
      : program_(parse_program(R"(
(literalize item a b)
(p loose   (item ^a 1)      --> (halt))
(p tight   (item ^a 1 ^b 2) --> (halt))
(p general (item ^b 2)      --> (halt))
)")) {}

  const Production& production(std::string_view name) {
    const auto* p = program_.find_production(*program_.symbols().find(name));
    EXPECT_NE(p, nullptr);
    return *p;
  }

  const Wme* wme(TimeTag tag) {
    wmes_.push_back(std::make_unique<Wme>(0, kNilSymbol,
                                          std::vector<Value>{Value(1.0), Value(2.0)}, tag));
    return wmes_.back().get();
  }

  Program program_;
  std::vector<std::unique_ptr<Wme>> wmes_;
};

TEST_F(ConflictSetTest, SelectEmptyReturnsNull) {
  ConflictSet cs;
  EXPECT_EQ(cs.select(), nullptr);
  EXPECT_TRUE(cs.empty());
}

TEST_F(ConflictSetTest, RecencyWinsUnderLex) {
  ConflictSet cs;
  cs.add(production("loose"), Wmes{wme(1)});
  cs.add(production("general"), Wmes{wme(5)});
  const Instantiation* winner = cs.select();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->production, &production("general"));
}

TEST_F(ConflictSetTest, SpecificityBreaksRecencyTies) {
  ConflictSet cs;
  const Wme* shared = wme(7);
  cs.add(production("loose"), Wmes{shared});
  cs.add(production("tight"), Wmes{shared});
  const Instantiation* winner = cs.select();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->production, &production("tight"));
}

TEST_F(ConflictSetTest, RefractionPreventsRefiring) {
  ConflictSet cs;
  cs.add(production("loose"), Wmes{wme(1)});
  const Instantiation* first = cs.select();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cs.select(), nullptr);  // still present, but fired
  EXPECT_EQ(cs.size(), 1u);
}

TEST_F(ConflictSetTest, ReAddingAfterRemovalResetsRefraction) {
  ConflictSet cs;
  const Wme* w = wme(3);
  cs.add(production("loose"), Wmes{w});
  ASSERT_NE(cs.select(), nullptr);
  cs.remove(production("loose"), std::vector<const Wme*>{w});
  cs.add(production("loose"), Wmes{w});
  EXPECT_NE(cs.select(), nullptr);
}

TEST_F(ConflictSetTest, RemoveUnknownThrows) {
  ConflictSet cs;
  const Wme* w = wme(1);
  EXPECT_THROW(cs.remove(production("loose"), std::vector<const Wme*>{w}), std::logic_error);
}

TEST_F(ConflictSetTest, DuplicateAddThrows) {
  ConflictSet cs;
  const Wme* w = wme(1);
  cs.add(production("loose"), Wmes{w});
  EXPECT_THROW(cs.add(production("loose"), Wmes{w}), std::logic_error);
}

TEST_F(ConflictSetTest, LexComparesFullRecencyVector) {
  ConflictSet cs;
  // {9, 2} vs {9, 5}: second position decides.
  cs.add(production("loose"), Wmes{wme(2), wme(9)});
  cs.add(production("general"), Wmes{wme(5), wme(9)});
  const Instantiation* winner = cs.select();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->production, &production("general"));
}

TEST_F(ConflictSetTest, LongerRecencyWinsOnPrefixTie) {
  ConflictSet cs;
  cs.add(production("loose"), Wmes{wme(9)});
  cs.add(production("general"), Wmes{wme(4), wmes_.front().get()});
  // general: recency {9, 4}; loose: {9}. Prefix ties, longer wins.
  const Instantiation* winner = cs.select();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->production, &production("general"));
}

TEST_F(ConflictSetTest, MeaPrioritizesFirstCeRecency) {
  ConflictSet cs;
  // Under LEX, {10, 1} beats {5, 4}. Under MEA, the first CE's tag decides:
  // first add has first-CE tag 1; second has 4 -> MEA picks the second.
  cs.add(production("loose"), Wmes{wme(1), wme(10)});
  cs.add(production("general"), Wmes{wme(4), wme(5)});

  const auto lex_snapshot = cs.snapshot();
  ASSERT_EQ(lex_snapshot.size(), 2u);
  const Instantiation* a = lex_snapshot[0];
  const Instantiation* b = lex_snapshot[1];
  const Instantiation* first_added = a->production == &production("loose") ? a : b;
  const Instantiation* second_added = a->production == &production("loose") ? b : a;
  EXPECT_TRUE(dominates(*first_added, *second_added, Strategy::Lex));
  EXPECT_TRUE(dominates(*second_added, *first_added, Strategy::Mea));
}

TEST_F(ConflictSetTest, DeterministicTieBreakBySequence) {
  ConflictSet cs;
  const Wme* w = wme(7);
  // Same wme, same recency, same specificity (loose vs general both have 2
  // tests): earliest-added wins.
  cs.add(production("loose"), Wmes{w});
  cs.add(production("general"), Wmes{w});
  const Instantiation* winner = cs.select();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->production, &production("loose"));
}

TEST_F(ConflictSetTest, ClearEmpties) {
  ConflictSet cs;
  cs.add(production("loose"), Wmes{wme(1)});
  cs.clear();
  EXPECT_TRUE(cs.empty());
  EXPECT_EQ(cs.select(), nullptr);
}

TEST_F(ConflictSetTest, SnapshotReflectsContents) {
  ConflictSet cs;
  cs.add(production("loose"), Wmes{wme(1)});
  cs.add(production("tight"), Wmes{wme(2)});
  EXPECT_EQ(cs.snapshot().size(), 2u);
}

// Once the record pool, its free list, the identity table and the unfired
// heap have grown to the working size, adding, selecting, rearming,
// removing and clearing 3-WME instantiations allocates nothing: records hold
// their WMEs and recency key inline and are recycled.
TEST_F(ConflictSetTest, SteadyStateAllocatesNothing) {
  constexpr std::size_t kLive = 200;
  for (TimeTag tag = 1; tag <= kLive + 2; ++tag) (void)wme(tag);
  std::vector<Wmes> keys;
  for (std::size_t i = 0; i < kLive; ++i) {
    keys.push_back(Wmes{wmes_[i].get(), wmes_[i + 1].get(), wmes_[i + 2].get()});
  }
  const Production& p = production("loose");
  ConflictSet cs;
  std::vector<const Instantiation*> selected;
  selected.reserve(kLive);
  const auto cycle = [&] {
    for (const Wmes& k : keys) cs.add(p, k);
    selected.clear();
    for (std::size_t i = 0; i < kLive / 2; ++i) selected.push_back(cs.select());
    for (std::size_t i = 0; i < kLive / 4; ++i) {
      cs.rearm(*selected[i]->production, selected[i]->wmes, selected[i]->seq);
    }
    for (const Wmes& k : keys) cs.remove(p, k);
    for (const Wmes& k : keys) cs.add(p, k);
    for (std::size_t i = 0; i < kLive / 2; ++i) (void)cs.select();
    cs.clear();
  };
  cycle();  // warm-up: grows the pool, the free list and the table
  cycle();

  t_allocations = 0;
  t_count_allocations = true;
  for (int i = 0; i < 3; ++i) cycle();
  t_count_allocations = false;
  EXPECT_EQ(t_allocations, 0U);
  EXPECT_TRUE(cs.empty());
}

/// Reference model for the differential test: a plain vector of entries,
/// selection by a linear scan for the unfired entry that dominates all the
/// others.
class ConflictModel {
 public:
  explicit ConflictModel(Strategy strategy) : strategy_(strategy) {}

  [[nodiscard]] const Instantiation* find(const Production& p,
                                         std::span<const Wme* const> wmes) const {
    const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const Instantiation& e) {
      return e.production == &p && std::ranges::equal(e.wmes, wmes);
    });
    return it == entries_.end() ? nullptr : &*it;
  }

  void add(const Production& p, std::span<const Wme* const> wmes) {
    Instantiation& e = entries_.emplace_back();
    e.production = &p;
    e.wmes.assign(wmes.begin(), wmes.end());
    for (const Wme* w : wmes) e.recency.push_back(w->timetag());
    std::sort(e.recency.begin(), e.recency.end(), std::greater<>());
    e.seq = next_seq_++;
  }

  void remove(const Production& p, std::span<const Wme* const> wmes) {
    std::erase_if(entries_, [&](const Instantiation& e) {
      return e.production == &p && std::ranges::equal(e.wmes, wmes);
    });
  }

  const Instantiation* select() {
    Instantiation* best = nullptr;
    for (Instantiation& e : entries_) {
      if (!e.fired && (best == nullptr || dominates(e, *best, strategy_))) best = &e;
    }
    if (best == nullptr) return nullptr;
    for (const Instantiation& e : entries_) {
      if (!e.fired && &e != best) {
        EXPECT_TRUE(dominates(*best, e, strategy_));
      }
    }
    best->fired = true;
    return best;
  }

  void rearm(const Production& p, std::span<const Wme* const> wmes, std::uint64_t seq) {
    for (Instantiation& e : entries_) {
      if (e.production == &p && std::ranges::equal(e.wmes, wmes) && e.seq == seq) e.fired = false;
    }
  }

  void clear() {
    entries_.clear();
    next_seq_ = 0;
  }

  [[nodiscard]] const std::vector<Instantiation>& entries() const { return entries_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

 private:
  Strategy strategy_;
  std::vector<Instantiation> entries_;
  std::uint64_t next_seq_ = 0;
};

using Entry = std::tuple<const Production*, Wmes, std::uint64_t, bool>;

Entry entry_of(const Instantiation& i) {
  return {i.production, Wmes(i.wmes.begin(), i.wmes.end()), i.seq, i.fired};
}

void expect_same(const ConflictSet& cs, const ConflictModel& model, std::size_t step) {
  ASSERT_EQ(cs.size(), model.entries().size()) << "step " << step;
  std::size_t unfired = 0;
  for (const Instantiation& e : model.entries()) unfired += e.fired ? 0 : 1;
  EXPECT_EQ(cs.unfired(), unfired) << "step " << step;
  EXPECT_EQ(cs.next_seq(), model.next_seq()) << "step " << step;
  std::vector<Entry> actual;
  for (const Instantiation* i : cs.snapshot()) actual.push_back(entry_of(*i));
  std::vector<Entry> expected;
  for (const Instantiation& e : model.entries()) expected.push_back(entry_of(e));
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(actual, expected) << "step " << step;
}

// Differential trace against ConflictModel. The live size follows a target
// that starts small (many removals inside one 16-slot table, so probe runs
// wrap past its end), climbs to a few hundred (the table doubles five
// times) and falls back. "loose" and "general" have equal specificity, and
// twin adds give them the same WMEs, so only the sequence number orders
// them; rearm replays old (production, WMEs, seq) triples, including ones
// whose instantiation was since removed and re-created.
TEST_F(ConflictSetTest, DifferentialAgainstReferenceModel) {
  const std::array<const Production*, 3> productions = {&production("loose"), &production("general"),
                                                        &production("tight")};
  std::vector<const Wme*> pool;
  for (TimeTag tag = 1; tag <= 24; ++tag) pool.push_back(wme(tag));

  for (const Strategy strategy : {Strategy::Lex, Strategy::Mea}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << (strategy == Strategy::Lex ? "LEX" : "MEA")
                                        << " seed " << seed);
      util::Rng rng(seed);
      ConflictSet cs(strategy);
      ConflictModel model(strategy);
      std::vector<std::tuple<const Production*, Wmes, std::uint64_t>> history;
      std::size_t rearmed_live = 0;
      std::size_t rearmed_recreated = 0;

      const auto random_wmes = [&] {
        Wmes wmes(1 + rng.next_below(3));
        for (const Wme*& w : wmes) w = pool[rng.next_below(pool.size())];
        return wmes;
      };
      const auto add = [&](const Production& p, std::span<const Wme* const> wmes) {
        if (model.find(p, wmes) != nullptr) {
          EXPECT_THROW(cs.add(p, wmes), std::logic_error);
          return;
        }
        history.emplace_back(&p, Wmes(wmes.begin(), wmes.end()), model.next_seq());
        cs.add(p, wmes);
        model.add(p, wmes);
      };

      constexpr std::size_t kSteps = 2400;
      for (std::size_t step = 0; step < kSteps; ++step) {
        const std::size_t target = step < 600 ? 8 : step < 1600 ? 300 : 20;
        const std::size_t size = model.entries().size();
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 40) {
          // Add or remove, steering the size toward the target.
          if (size < target || size == 0) {
            add(*productions[rng.next_below(productions.size())], random_wmes());
          } else {
            const Instantiation e = model.entries()[rng.next_below(size)];
            cs.remove(*e.production, e.wmes);
            model.remove(*e.production, e.wmes);
          }
        } else if (roll < 50) {
          // Twin: the same WMEs under the other equal-specificity production.
          if (size == 0) continue;
          const Instantiation e = model.entries()[rng.next_below(size)];
          if (e.production == productions[2]) continue;
          add(*productions[e.production == productions[0] ? 1 : 0], e.wmes);
        } else if (roll < 72) {
          const Instantiation* got = cs.select();
          const Instantiation* want = model.select();
          ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
          if (got != nullptr) {
            EXPECT_EQ(entry_of(*got), entry_of(*want)) << "step " << step;
          }
        } else if (roll < 90) {
          if (history.empty()) continue;
          const auto& [p, wmes, seq] = history[rng.next_below(history.size())];
          const Instantiation* live = model.find(*p, wmes);
          if (live != nullptr && live->fired) ++(live->seq == seq ? rearmed_live : rearmed_recreated);
          cs.rearm(*p, wmes, seq);
          model.rearm(*p, wmes, seq);
        } else if (roll < 95) {
          // Duplicate add of a live entry: throws, set unchanged.
          if (size == 0) continue;
          const Instantiation& e = model.entries()[rng.next_below(size)];
          EXPECT_THROW(cs.add(*e.production, e.wmes), std::logic_error);
        } else if (roll < 99) {
          // Remove of an identity that is not present: throws, set unchanged.
          const Production& p = *productions[rng.next_below(productions.size())];
          const Wmes wmes = random_wmes();
          if (model.find(p, wmes) != nullptr) continue;
          EXPECT_THROW(cs.remove(p, wmes), std::logic_error);
        } else if (step % 7 == 0) {
          cs.clear();
          model.clear();
          history.clear();
        }
        expect_same(cs, model, step);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // The trace really exercised both rearm outcomes.
      EXPECT_GT(rearmed_live, 0U);
      EXPECT_GT(rearmed_recreated, 0U);
    }
  }
}

// The unfired heap under load: a few hundred unfired instantiations, so a
// removal of an unfired one almost always lands on an interior heap
// position; fired instantiations re-entering through rearm; selections; and
// at the end every unfired instantiation drained in dominance order, each
// selection checked against ConflictModel. An erase that only sifts down (the
// record moved into the hole can belong above it), a pop that skips the
// sift-down, and a swap that leaves the moved record's heap position stale
// each make some selection here disagree with the model.
TEST_F(ConflictSetTest, UnfiredHeapAgainstReferenceModel) {
  const std::array<const Production*, 3> productions = {&production("loose"), &production("general"),
                                                        &production("tight")};
  std::vector<const Wme*> pool;
  for (TimeTag tag = 1; tag <= 40; ++tag) pool.push_back(wme(tag));

  for (const Strategy strategy : {Strategy::Lex, Strategy::Mea}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(::testing::Message() << (strategy == Strategy::Lex ? "LEX" : "MEA")
                                        << " seed " << seed);
      util::Rng rng(seed);
      ConflictSet cs(strategy);
      ConflictModel model(strategy);
      std::size_t interior_removals = 0;
      std::size_t rearms = 0;
      std::size_t peak_unfired = 0;
      std::vector<std::size_t> fired;  // model entries that have fired

      for (std::size_t step = 0; step < 3000; ++step) {
        const std::size_t size = model.entries().size();
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 45) {
          if (size >= 500) continue;
          Wmes wmes(1 + rng.next_below(3));
          for (const Wme*& w : wmes) w = pool[rng.next_below(pool.size())];
          const Production& p = *productions[rng.next_below(productions.size())];
          if (model.find(p, wmes) != nullptr) continue;
          cs.add(p, wmes);
          model.add(p, wmes);
        } else if (roll < 60) {
          if (size == 0) continue;
          const Instantiation e = model.entries()[rng.next_below(size)];
          if (!e.fired && cs.unfired() >= 100) ++interior_removals;
          cs.remove(*e.production, e.wmes);
          model.remove(*e.production, e.wmes);
        } else if (roll < 80) {
          const Instantiation* got = cs.select();
          const Instantiation* want = model.select();
          ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
          if (got != nullptr) {
            ASSERT_EQ(entry_of(*got), entry_of(*want)) << "step " << step;
          }
        } else {
          fired.clear();
          for (std::size_t i = 0; i < size; ++i) {
            if (model.entries()[i].fired) fired.push_back(i);
          }
          if (fired.empty()) continue;
          const Instantiation e = model.entries()[fired[rng.next_below(fired.size())]];
          cs.rearm(*e.production, e.wmes, e.seq);
          model.rearm(*e.production, e.wmes, e.seq);
          ++rearms;
        }
        peak_unfired = std::max(peak_unfired, cs.unfired());
        if (step % 50 == 0) expect_same(cs, model, step);
        if (::testing::Test::HasFatalFailure()) return;
      }
      expect_same(cs, model, 3000);
      for (std::size_t n = 0;; ++n) {
        const Instantiation* got = cs.select();
        const Instantiation* want = model.select();
        ASSERT_EQ(got == nullptr, want == nullptr) << "drain " << n;
        if (got == nullptr) break;
        ASSERT_EQ(entry_of(*got), entry_of(*want)) << "drain " << n;
      }
      EXPECT_EQ(cs.unfired(), 0U);
      // The trace really ran the heap deep and hit each path many times.
      EXPECT_GE(peak_unfired, 200U);
      EXPECT_GE(interior_removals, 100U);
      EXPECT_GE(rearms, 100U);
    }
  }
}

}  // namespace
}  // namespace psmsys::ops5
