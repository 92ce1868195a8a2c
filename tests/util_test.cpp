#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/open_table.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/work_units.hpp"

// Heap allocations made by this thread while t_count_allocations is set,
// counted by the replaced global operator new below for the Pool tests.
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

namespace psmsys::util {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextIntCoversClosedRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.next_normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositiveAndSkewed) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.next_lognormal(0.0, 1.0);
    EXPECT_GT(v, 0.0);
    stats.add(v);
  }
  EXPECT_GT(stats.max(), 10.0);  // heavy tail present
}

TEST(Rng, ForkGivesIndependentStreams) {
  Rng base(123);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
  // Forking again with the same id reproduces the stream.
  Rng base2(123);
  Rng f1b = base2.fork(1);
  Rng f1c = Rng(123).fork(1);
  (void)f1c.next_u64();  // advance one
  Rng f1d = Rng(123).fork(1);
  EXPECT_EQ(f1b.next_u64(), f1d.next_u64());
}

TEST(Rng, BernoulliProbability) {
  Rng rng(77);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.coefficient_of_variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, CoefficientOfVariance) {
  // Tables 5-7 of the paper report cv = stddev / mean.
  RunningStats s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_NEAR(s.coefficient_of_variance(), s.stddev() / 15.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  Rng rng(4);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
  EXPECT_NEAR(a.min(), all.min(), 0.0);
  EXPECT_NEAR(a.max(), all.max(), 0.0);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Summarize, SpanOverload) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-much-longer-name", "23456"});
  std::ostringstream os;
  t.print(os, "Title");
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(-7), "-7");
}

// ---------------------------------------------------------------------------
// Work units
// ---------------------------------------------------------------------------

TEST(WorkUnits, RoundTripSeconds) {
  const WorkUnits wu = from_seconds(2.5);
  EXPECT_NEAR(to_seconds(wu), 2.5, 1e-9);
}

// ---------------------------------------------------------------------------
// OpenTable
// ---------------------------------------------------------------------------

struct Item {
  std::uint64_t key = 0;
  std::uint64_t hash = 0;
};

struct ItemHash {
  [[nodiscard]] std::uint64_t operator()(const Item& item) const noexcept { return item.hash; }
};

using ItemTable = OpenTable<Item, ItemHash>;

/// Random inserts, finds and erases over `keys`, with at most `max_live`
/// live at once, checked against a std::unordered_map after every step. A
/// deletion that breaks a probe run shows up as a live key the table no
/// longer finds, or as an erased one it still does.
void drive_against_reference(std::vector<Item>& keys, std::size_t max_live, std::uint64_t seed,
                             int steps, ItemTable& table) {
  Rng rng(seed);
  std::unordered_map<std::uint64_t, Item*> reference;
  const auto slot_of = [&table](const Item& item) {
    return table.find_slot(item.hash, [&item](const Item& e) { return e.key == item.key; });
  };
  for (int step = 0; step < steps; ++step) {
    Item& item = keys[rng.next_below(keys.size())];
    const std::int64_t op = rng.next_int(0, 2);
    const auto ref = reference.find(item.key);
    if (op == 0 && ref == reference.end() && reference.size() < max_live) {
      table.reserve_one();
      const std::size_t slot = slot_of(item);
      ASSERT_EQ(table[slot], nullptr) << "step " << step << ": absent key found";
      table.fill(slot, &item);
      reference.emplace(item.key, &item);
    } else if (op == 1) {
      const std::size_t slot = slot_of(item);
      ASSERT_EQ(table[slot], ref == reference.end() ? nullptr : ref->second) << "step " << step;
      if (ref != reference.end()) {
        table.erase(slot);
        reference.erase(ref);
      }
    } else {
      ASSERT_EQ(table[slot_of(item)], ref == reference.end() ? nullptr : ref->second)
          << "step " << step;
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    if (step % 16 == 0) {
      for (const auto& [key, live] : reference) {
        ASSERT_EQ(table[slot_of(*live)], live) << "step " << step << ": key " << key << " lost";
      }
      std::size_t visited = 0;
      table.for_each([&](const Item& e) {
        ++visited;
        EXPECT_EQ(reference.count(e.key), 1U) << "step " << step << ": stale key " << e.key;
      });
      ASSERT_EQ(visited, reference.size()) << "step " << step;
    }
  }
}

TEST(OpenTable, DenseTimetagsMatchReference) {
  std::vector<Item> keys;
  for (std::uint64_t tag = 1; tag <= 700; ++tag) keys.push_back({tag, mix_bits(tag)});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ItemTable table;
    ASSERT_NO_FATAL_FAILURE(drive_against_reference(keys, keys.size(), seed, 20000, table));
    EXPECT_GE(table.capacity(), 512U);  // at least five doublings from 16 slots
    EXPECT_LE(table.size() * 4, table.capacity() * 3);
  }
}

TEST(OpenTable, AlignedPointersMatchReference) {
  std::vector<Item> keys;
  for (std::uint64_t i = 0; i < 700; ++i) {
    const std::uint64_t address = 0x7f3a'0000'0000ULL + 64 * i;
    keys.push_back({address, mix_bits(address)});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ItemTable table;
    ASSERT_NO_FATAL_FAILURE(drive_against_reference(keys, keys.size(), seed, 20000, table));
    EXPECT_GE(table.capacity(), 512U);
  }
}

TEST(OpenTable, ProbeRunsWrappingPastTheEndMatchReference) {
  // Every home is one of the last five slots, whatever the table's size, so
  // probe runs wrap past the end: deletions shift entries across it, and a
  // doubling re-places them across it.
  std::vector<Item> keys;
  for (std::uint64_t k = 0; k < 40; ++k) keys.push_back({k, ~std::uint64_t{0} - k % 5});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ItemTable fixed;
    ASSERT_NO_FATAL_FAILURE(drive_against_reference(keys, 12, seed, 20000, fixed));
    EXPECT_EQ(fixed.capacity(), 16U);  // 12 live is exactly the 3/4 load
    ItemTable growing;
    ASSERT_NO_FATAL_FAILURE(drive_against_reference(keys, keys.size(), seed, 20000, growing));
    EXPECT_GE(growing.capacity(), 32U);
  }
}

TEST(OpenTable, ClearKeepsCapacity) {
  std::vector<Item> keys;
  for (std::uint64_t tag = 1; tag <= 100; ++tag) keys.push_back({tag, mix_bits(tag)});
  ItemTable table;
  for (Item& item : keys) {
    table.reserve_one();
    table.fill(table.find_slot(item.hash, [&](const Item& e) { return e.key == item.key; }),
               &item);
  }
  const std::size_t capacity = table.capacity();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table[table.find_slot(keys[0].hash, [&](const Item& e) { return e.key == keys[0].key; })],
            nullptr);
}

TEST(OpenTable, MixedHashSpreadsDenseAndAlignedKeys) {
  // Unmixed, 1024 addresses 64 bytes apart fall on 16 homes under a
  // 1024-slot mask. Mixed, they and 1024 dense timetags each cover about
  // as many homes as a random hash would (~647).
  std::set<std::uint64_t> pointer_homes;
  std::set<std::uint64_t> timetag_homes;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    pointer_homes.insert(mix_bits(0x5555'0000'0000ULL + 64 * i) & 1023);
    timetag_homes.insert(mix_bits(i + 1) & 1023);
  }
  EXPECT_GT(pointer_homes.size(), 500U);
  EXPECT_GT(timetag_homes.size(), 500U);
}

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

static_assert(sizeof(SmallVec<void*, 2>) == sizeof(std::vector<void*>));
static_assert(sizeof(SmallVec<std::uint32_t, 4>) == sizeof(std::vector<std::uint32_t>));

template <typename Small>
::testing::AssertionResult same_elements(const Small& small,
                                         const std::vector<typename Small::value_type>& ref) {
  if (small.size() != ref.size()) {
    return ::testing::AssertionFailure() << "size " << small.size() << ", want " << ref.size();
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!(small[i] == ref[i])) return ::testing::AssertionFailure() << "element " << i << " differs";
  }
  if (small.empty() != ref.empty() || (!ref.empty() && !(small.back() == ref.back()))) {
    return ::testing::AssertionFailure() << "empty()/back() disagree";
  }
  return ::testing::AssertionSuccess();
}

/// Random push, pop, swap-erase, resize, assign, clear, copy and move on a
/// SmallVec and a std::vector side by side; after every step both hold the
/// same elements in the same order, and the SmallVec's capacity has not
/// shrunk. Lengths wander from empty to a few times the inline capacity, so
/// the array spills, and crosses that boundary again after clear() refills
/// the spill it kept.
///
/// Kills: a spill that drops the last inline element (the elements differ
/// after the first push past N); a clear() that releases the spill (the
/// capacity shrinks).
template <typename T, std::uint32_t kInline>
void drive_small_vec(std::uint64_t seed, int steps) {
  using Small = SmallVec<T, kInline>;
  Rng rng(seed);
  Small small;
  std::vector<T> ref;
  const auto random_value = [&rng] { return static_cast<T>(rng.next_below(1000) + 1); };
  int crossings_after_clear = 0;
  bool cleared_since_spill = false;
  const auto spilled = [&small] { return small.capacity() > kInline; };
  for (int step = 0; step < steps; ++step) {
    const std::size_t before_size = small.size();
    const std::size_t before_cap = small.capacity();
    const std::uint64_t op = rng.next_below(100);
    const std::size_t limit = 4 * kInline + 3;
    if (op < 40) {
      if (small.size() < limit) {
        const T v = random_value();
        small.push_back(v);
        ref.push_back(v);
      }
    } else if (op < 55) {
      if (!ref.empty()) {
        small.pop_back();
        ref.pop_back();
      }
    } else if (op < 70) {
      // Swap-with-back erase at a random position, as the Rete removes.
      if (!ref.empty()) {
        const std::size_t pos = rng.next_below(ref.size());
        small[pos] = small.back();
        small.pop_back();
        ref[pos] = ref.back();
        ref.pop_back();
      }
    } else if (op < 78) {
      const std::size_t n = rng.next_below(limit + 1);
      small.resize(n);
      ref.resize(n);
    } else if (op < 84) {
      const std::size_t n = rng.next_below(limit + 1);
      if (rng.next_below(2) == 0) {
        const T v = random_value();
        small.assign(n, v);
        ref.assign(n, v);
      } else {
        std::vector<T> source(n);
        for (T& v : source) v = random_value();
        small.assign(source.begin(), source.end());
        ref.assign(source.begin(), source.end());
      }
    } else if (op < 90) {
      small.clear();
      ref.clear();
      if (spilled()) cleared_since_spill = true;
    } else if (op < 95) {
      Small copy = small;
      ASSERT_TRUE(same_elements(copy, ref)) << "copy, step " << step;
      Small moved = std::move(copy);
      ASSERT_TRUE(same_elements(moved, ref)) << "move, step " << step;
      ASSERT_TRUE(copy.empty()) << "moved-from, step " << step;
      small = moved;
    } else {
      Small moved = std::move(small);
      small = std::move(moved);
    }
    ASSERT_TRUE(same_elements(small, ref)) << "step " << step;
    ASSERT_GE(small.capacity(), small.size()) << "step " << step;
    if (op < 95) {
      ASSERT_GE(small.capacity(), before_cap) << "capacity shrank at step " << step;
    }
    if (before_size <= kInline && small.size() > kInline && cleared_since_spill) {
      ++crossings_after_clear;
    }
  }
  EXPECT_GT(crossings_after_clear, 0) << "the trace never refilled a kept spill";
}

TEST(SmallVec, DifferentialAgainstVector) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ASSERT_NO_FATAL_FAILURE((drive_small_vec<std::uint32_t, 4>(seed, 4000)));
    ASSERT_NO_FATAL_FAILURE((drive_small_vec<std::uint64_t, 1>(seed, 4000)));
    ASSERT_NO_FATAL_FAILURE((drive_small_vec<std::uint64_t, 3>(seed, 4000)));
  }
}

TEST(SmallVec, SpillsPastTheInlineCapacityAndKeepsItOnClear) {
  SmallVec<std::uint32_t, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.capacity(), 2U);
  v.push_back(3);  // the spill must carry both inline elements over
  ASSERT_GT(v.capacity(), 2U);
  EXPECT_EQ(v.size(), 3U);
  EXPECT_EQ(v[0], 1U);
  EXPECT_EQ(v[1], 2U);
  EXPECT_EQ(v[2], 3U);
  const std::uint32_t* spill = v.data();
  const std::size_t capacity = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), spill);  // refilled in place, no new block
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

struct PoolItem {
  std::uint64_t stamp = 0;
  std::uint64_t pad[3] = {};
};

/// Random acquire and release against a reference set of live elements and
/// a reference LIFO stack of released ones. An acquire must never return a
/// live element, must return the most recently released one if any (with
/// the state it was released in), and otherwise a fresh value-initialised
/// one. Every live element keeps its address and its stamp while the pool
/// adds chunks.
///
/// Kills: a pool that recycles a slot twice (an acquire returns a live
/// element).
TEST(Pool, AcquireAndReleaseMatchReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Pool<PoolItem> pool;
    std::vector<std::pair<PoolItem*, std::uint64_t>> live;  // element and its stamp
    std::set<PoolItem*> live_set;
    std::vector<std::pair<PoolItem*, std::uint64_t>> released;
    const std::size_t max_live = 6 * Pool<PoolItem>::kChunkElements;
    for (std::uint64_t step = 1; step <= 30000; ++step) {
      const bool acquire = live.empty() || (live.size() < max_live && rng.next_below(100) < 55);
      if (acquire) {
        const std::size_t constructed = pool.constructed();
        PoolItem* item = pool.acquire();
        ASSERT_EQ(live_set.count(item), 0U) << "step " << step << ": handed out a live element";
        if (released.empty()) {
          EXPECT_EQ(pool.constructed(), constructed + 1) << "step " << step;
          EXPECT_EQ(item->stamp, 0U) << "step " << step << ": new element not value-initialised";
        } else {
          EXPECT_EQ(item, released.back().first) << "step " << step << ": reuse is not LIFO";
          EXPECT_EQ(item->stamp, released.back().second) << "step " << step << ": state lost";
          EXPECT_EQ(pool.constructed(), constructed) << "step " << step;
          released.pop_back();
        }
        item->stamp = step;
        live.emplace_back(item, step);
        live_set.insert(item);
      } else {
        const std::size_t pos = rng.next_below(live.size());
        pool.release(live[pos].first);
        released.push_back(live[pos]);
        live_set.erase(live[pos].first);
        live[pos] = live.back();
        live.pop_back();
      }
      ASSERT_EQ(pool.constructed(), live.size() + released.size()) << "step " << step;
      if (step % 1000 == 0) {
        for (const auto& [item, stamp] : live) {
          ASSERT_EQ(item->stamp, stamp) << "step " << step << ": element moved or overwritten";
        }
      }
    }
    EXPECT_GT(pool.constructed(), 4 * Pool<PoolItem>::kChunkElements);  // grew several chunks
    // Iteration visits every constructed element once, live or released.
    std::set<const PoolItem*> seen;
    for (const PoolItem& item : pool) seen.insert(&item);
    EXPECT_EQ(seen.size(), pool.constructed());
    for (PoolItem* item : live_set) EXPECT_EQ(seen.count(item), 1U);
  }
}

/// release_all() frees every element, live or already released, at once;
/// the pool then hands them out again in construction order, each in the
/// state it was left in, before it constructs anything.
///
/// Kills: a release_all() that leaves an individually released element on
/// the free list too (it would be handed out twice), or that hands elements
/// out in free-list order.
TEST(Pool, ReleaseAllHandsOutInConstructionOrderWithoutAllocating) {
  Pool<PoolItem> pool;
  const std::size_t n = 2 * Pool<PoolItem>::kChunkElements + 3;
  std::vector<PoolItem*> order;
  for (std::size_t i = 0; i < n; ++i) {
    order.push_back(pool.acquire());
    order.back()->stamp = i + 1;
  }
  for (std::size_t i = 0; i < n; i += 5) pool.release(order[i]);
  pool.release_all();

  std::vector<PoolItem*> again;
  again.reserve(n);
  t_allocations = 0;
  t_count_allocations = true;
  for (std::size_t i = 0; i < n; ++i) again.push_back(pool.acquire());
  t_count_allocations = false;
  EXPECT_EQ(t_allocations, 0U);
  EXPECT_EQ(pool.constructed(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(again[i], order[i]) << "element " << i << " out of construction order";
    EXPECT_EQ(again[i]->stamp, i + 1) << "element " << i << ": state lost";
  }
  // All of them live again: the next acquire constructs.
  EXPECT_EQ(pool.acquire()->stamp, 0U);
  EXPECT_EQ(pool.constructed(), n + 1);
}

#ifdef PSMSYS_ASAN
// Under AddressSanitizer a free element is poisoned: a stale pointer into
// the pool is reported instead of reading whatever recycles the element.
TEST(PoolDeathTest, ReadingAFreeElementIsReported) {
  Pool<PoolItem> pool;
  PoolItem* released = pool.acquire();
  PoolItem* live = pool.acquire();
  pool.release(released);
  EXPECT_DEATH((void)*static_cast<volatile std::uint64_t*>(&released->stamp),
               "use-after-poison");
  pool.release_all();
  EXPECT_DEATH((void)*static_cast<volatile std::uint64_t*>(&live->stamp), "use-after-poison");
  EXPECT_EQ(pool.acquire(), released);  // construction order, unpoisoned again
  EXPECT_EQ(released->stamp, 0U);
}
#endif

struct Counted {
  static inline std::map<const Counted*, int>* destroyed = nullptr;
  ~Counted() { ++(*destroyed)[this]; }
  int value = 0;
};

TEST(Pool, DestructionDestroysEachElementOnce) {
  std::map<const Counted*, int> destroyed;
  Counted::destroyed = &destroyed;
  std::set<const Counted*> constructed;
  {
    Pool<Counted> pool;
    std::vector<Counted*> held;
    for (std::size_t i = 0; i < 3 * Pool<Counted>::kChunkElements + 5; ++i) {
      held.push_back(pool.acquire());
      constructed.insert(held.back());
    }
    for (std::size_t i = 0; i < held.size(); i += 3) pool.release(held[i]);
    for (int i = 0; i < 4; ++i) (void)pool.acquire();  // recycles, constructs nothing
    EXPECT_EQ(pool.constructed(), constructed.size());
    EXPECT_TRUE(destroyed.empty());  // release() does not destroy
  }
  EXPECT_EQ(destroyed.size(), constructed.size());
  for (const Counted* c : constructed) EXPECT_EQ(destroyed[c], 1) << "element destroyed wrongly";
  Counted::destroyed = nullptr;
}

}  // namespace
}  // namespace psmsys::util
