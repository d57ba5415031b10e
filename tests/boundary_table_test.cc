// Tests for BoundaryTable, the open-addressed offset -> node map behind
// BinnedFreeIndex's coalescing. Random churn is checked against a
// std::unordered_map reference through several doublings; hand-built
// collisions force probe runs and backward-shift erases to wrap past the
// end of the slot array.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cosr/alloc/boundary_table.h"
#include "cosr/common/random.h"

namespace cosr {
namespace {

constexpr std::uint32_t kNil = BoundaryTable::kNil;

// The table's entries, as a map, read through ForEach.
std::unordered_map<std::uint64_t, std::uint32_t> Contents(
    const BoundaryTable& table) {
  std::unordered_map<std::uint64_t, std::uint32_t> contents;
  table.ForEach([&](std::uint64_t key, std::uint32_t node) {
    EXPECT_TRUE(contents.emplace(key, node).second) << "duplicate key " << key;
  });
  return contents;
}

// Every reference entry is found, absent keys are not, and ForEach yields
// exactly the reference.
void ExpectMatches(const BoundaryTable& table,
                   const std::unordered_map<std::uint64_t, std::uint32_t>& ref,
                   const std::vector<std::uint64_t>& absent_probes) {
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_LE(2 * table.size(), table.capacity());
  for (const auto& [key, node] : ref) {
    ASSERT_EQ(table.Find(key), node) << "key " << key;
  }
  for (const std::uint64_t key : absent_probes) {
    if (ref.count(key) == 0) {
      ASSERT_EQ(table.Find(key), kNil) << "key " << key;
    }
  }
  ASSERT_EQ(Contents(table), ref);
}

// `count` distinct keys >= `from` whose home slot is `slot` at the table's
// current capacity.
std::vector<std::uint64_t> KeysHomedAt(const BoundaryTable& table,
                                       std::size_t slot, int count,
                                       std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = from; static_cast<int>(keys.size()) < count;
       ++key) {
    if (table.HomeSlot(key) == slot) keys.push_back(key);
  }
  return keys;
}

TEST(BoundaryTableTest, EmptyTableFindsNothing) {
  BoundaryTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), BoundaryTable::kMinCapacity);
  EXPECT_EQ(table.Find(0), kNil);
  EXPECT_EQ(table.Find(12345), kNil);
  EXPECT_FALSE(table.Erase(0));
  EXPECT_TRUE(Contents(table).empty());
}

TEST(BoundaryTableTest, KeyZeroIsAnOrdinaryKey) {
  BoundaryTable table;
  table.Insert(0, 7);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(0), 7u);
  table.Insert(0, 9);  // replaces, does not duplicate
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(0), 9u);
  EXPECT_TRUE(table.Erase(0));
  EXPECT_EQ(table.Find(0), kNil);
  EXPECT_FALSE(table.Erase(0));
  EXPECT_EQ(table.size(), 0u);
}

TEST(BoundaryTableTest, ProbeRunWrapsPastTheEndOfTheSlotArray) {
  BoundaryTable table;
  const std::size_t last = table.capacity() - 1;
  // Four keys homed at the last slot fill it and slots 0..2; a key homed
  // at slot 0 is then displaced past the wrapped run, to slot 3.
  const std::vector<std::uint64_t> wrapped = KeysHomedAt(table, last, 4);
  const std::uint64_t at_zero = KeysHomedAt(table, 0, 1)[0];
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::uint32_t node = 0;
  for (const std::uint64_t key : wrapped) {
    table.Insert(key, node);
    ref[key] = node++;
  }
  table.Insert(at_zero, node);
  ref[at_zero] = node++;
  ASSERT_EQ(table.capacity(), BoundaryTable::kMinCapacity) << "grew early";
  const std::vector<std::uint64_t> absent = KeysHomedAt(table, last, 3, 1000);
  ExpectMatches(table, ref, absent);

  // Erasing the run's head shifts every wrapped member back by one slot,
  // across the array boundary, and the slot-0 key back to slot 2 — the
  // wrap-around case of the "home not cyclically after the hole" test.
  for (const std::uint64_t key : wrapped) {
    ASSERT_TRUE(table.Erase(key));
    ref.erase(key);
    ExpectMatches(table, ref, absent);
  }
  ASSERT_TRUE(table.Erase(at_zero));
  ref.erase(at_zero);
  ExpectMatches(table, ref, absent);
}

TEST(BoundaryTableTest, EraseFromTheMiddleOfAWrappedRunKeepsHomesReachable) {
  BoundaryTable table;
  const std::size_t cap = table.capacity();
  // One run spanning slots cap-3 .. 3, built from keys homed at cap-3,
  // cap-2, cap-1 (two), 0 and 1 (two). Some members must move into a hole
  // across the array boundary and some must stay: a key homed at cap-1
  // sitting in slot 0 may not move back to slot cap-2 or cap-3. Erase each
  // key in turn from a fresh table so every position of the hole is tried.
  std::vector<std::uint64_t> keys;
  for (const auto& [slot, count] :
       std::vector<std::pair<std::size_t, int>>{
           {cap - 3, 1}, {cap - 2, 1}, {cap - 1, 2}, {0, 1}, {1, 2}}) {
    for (const std::uint64_t key : KeysHomedAt(table, slot, count)) {
      keys.push_back(key);
    }
  }
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    BoundaryTable fresh;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      fresh.Insert(keys[i], static_cast<std::uint32_t>(i));
      ref[keys[i]] = static_cast<std::uint32_t>(i);
    }
    ASSERT_EQ(fresh.capacity(), cap) << "grew early";
    ASSERT_TRUE(fresh.Erase(keys[victim]));
    ref.erase(keys[victim]);
    ExpectMatches(fresh, ref, {keys[victim]});
  }
}

TEST(BoundaryTableTest, RandomChurnMatchesUnorderedMapThroughGrowth) {
  Rng rng(42);
  BoundaryTable table;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::vector<std::uint64_t> live;
  std::size_t growths = 0;
  std::size_t capacity = table.capacity();
  // Keys from a narrow range (with 0 in it) so inserts, replacements and
  // erases of present and absent keys all happen often; the population
  // settles near 4000 so the table doubles several times.
  for (int step = 0; step < 40000; ++step) {
    const std::uint64_t key = rng.UniformRange(0, 8191);
    const std::uint64_t op = rng.UniformRange(0, 9);
    if (op < 6) {
      const std::uint32_t node = static_cast<std::uint32_t>(step);
      if (ref.count(key) == 0) live.push_back(key);
      table.Insert(key, node);
      ref[key] = node;
    } else if (op < 8 && !live.empty()) {
      const std::size_t pick = rng.UniformRange(0, live.size() - 1);
      const std::uint64_t victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(table.Erase(victim));
      ref.erase(victim);
    } else {
      ASSERT_EQ(table.Erase(key), ref.erase(key) == 1);
      if (ref.size() != live.size()) {
        live.erase(std::find(live.begin(), live.end(), key));
      }
    }
    if (table.capacity() != capacity) {
      ++growths;
      capacity = table.capacity();
    }
    ASSERT_EQ(table.size(), ref.size());
    if (step % 997 == 0) {
      ExpectMatches(table, ref, {key, key + 1, 0, 8191});
    }
  }
  ExpectMatches(table, ref, {0, 1, 8191, 8192});
  EXPECT_GE(growths, 4u);
  // Drain to empty: every erase must still find its key.
  for (const std::uint64_t key : live) ASSERT_TRUE(table.Erase(key));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(Contents(table).empty());
}

TEST(BoundaryTableTest, LargeSequentialAndStridedKeys) {
  // Gap boundaries are byte offsets; runs of equal-sized objects make them
  // arithmetic progressions, the worst case for a weak hash.
  BoundaryTable table;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::uint32_t node = 0;
  for (const std::uint64_t stride : {std::uint64_t{1}, std::uint64_t{4096},
                                     std::uint64_t{1} << 32}) {
    for (std::uint64_t i = 0; i < 5000; ++i) {
      table.Insert(i * stride, node);
      ref[i * stride] = node++;
    }
  }
  ExpectMatches(table, ref, {3, 4097, (std::uint64_t{1} << 32) + 1});
  for (std::uint64_t i = 0; i < 5000; i += 2) {
    ASSERT_TRUE(table.Erase(i * 4096));
    ref.erase(i * 4096);
  }
  ExpectMatches(table, ref, {0, 8192});
}

}  // namespace
}  // namespace cosr
