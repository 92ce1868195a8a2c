#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/open_table.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/work_units.hpp"

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
  f1c.next_u64();  // advance one
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
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101.0), std::invalid_argument);
}

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(1.9);
  h.add(5.0);
  h.add(9.99);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
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

TEST(Table, CsvEscapesQuotesAndCommas) {
  Table t({"x"});
  t.add_row({"plain"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
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

}  // namespace
}  // namespace psmsys::util
