// Tests for U64HashMap, the open-addressed u64-keyed map, in both of its
// instantiations: BoundaryTable (gap offset -> node, behind
// BinnedFreeIndex's coalescing) and ObjectTable (id -> ObjectInfo, the
// size-class layout's object table). Random churn is checked against a
// std::unordered_map reference through several doublings; hand-built
// collisions force probe runs and backward-shift erases to wrap past the
// end of the slot array.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cosr/alloc/boundary_table.h"
#include "cosr/common/random.h"
#include "cosr/core/layout.h"

namespace cosr {
namespace {

// Each flavor maps a sequence number to a distinct storable value and
// encodes a value back into a u64 that the reference map stores, so one
// set of tests compares both instantiations against std::unordered_map.
struct BoundaryFlavor {
  using Table = BoundaryTable;
  static std::uint32_t Make(std::uint32_t n) { return n; }
  static std::uint64_t Encode(std::uint32_t node) { return node; }
};

struct ObjectFlavor {
  using Table = ObjectTable;
  // Every field varies with n, and size_class is never 0 (the vacant mark).
  static ObjectInfo Make(std::uint32_t n) {
    ObjectInfo info{};
    info.position = n;
    info.region = static_cast<std::int16_t>(static_cast<int>(n % 67) - 2);
    info.size_class = static_cast<std::uint8_t>(1 + n % 64);
    info.in_buffer = n & 1u;
    info.pending_delete = (n >> 1) & 1u;
    return info;
  }
  static std::uint64_t Encode(const ObjectInfo& info) {
    return std::uint64_t{info.position} |
           std::uint64_t{static_cast<std::uint16_t>(info.region)} << 32 |
           std::uint64_t{info.size_class} << 48 |
           std::uint64_t{info.in_buffer} << 56 |
           std::uint64_t{info.pending_delete} << 57;
  }
};

using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

template <typename Flavor>
class U64HashMapTest : public ::testing::Test {
 protected:
  using Table = typename Flavor::Table;

  static constexpr std::size_t kMinCapacity = Table::kMinCapacity;

  // Inserts key -> Make(n) into both the table and the reference.
  static void Put(Table& table, Reference& ref, std::uint64_t key,
                  std::uint32_t n) {
    table.Insert(key, Flavor::Make(n));
    ref[key] = Flavor::Encode(Flavor::Make(n));
  }

  // The table's entries, encoded, read through ForEach.
  static Reference Contents(const Table& table) {
    Reference contents;
    table.ForEach([&](std::uint64_t key, const auto& value) {
      EXPECT_TRUE(contents.emplace(key, Flavor::Encode(value)).second)
          << "duplicate key " << key;
    });
    return contents;
  }

  // Every reference entry is found, absent keys are not, and ForEach
  // yields exactly the reference.
  static void ExpectMatches(const Table& table, const Reference& ref,
                            const std::vector<std::uint64_t>& absent_probes) {
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_LE(2 * table.size(), table.capacity());
    for (const auto& [key, encoded] : ref) {
      const auto* value = table.Find(key);
      ASSERT_NE(value, nullptr) << "key " << key;
      ASSERT_EQ(Flavor::Encode(*value), encoded) << "key " << key;
    }
    for (const std::uint64_t key : absent_probes) {
      if (ref.count(key) == 0) {
        ASSERT_EQ(table.Find(key), nullptr) << "key " << key;
      }
    }
    ASSERT_EQ(Contents(table), ref);
  }

  // `count` distinct keys >= `from` whose home slot is `slot` at the
  // table's current capacity.
  static std::vector<std::uint64_t> KeysHomedAt(const Table& table,
                                                std::size_t slot, int count,
                                                std::uint64_t from = 0) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t key = from; static_cast<int>(keys.size()) < count;
         ++key) {
      if (table.HomeSlot(key) == slot) keys.push_back(key);
    }
    return keys;
  }
};

using Flavors = ::testing::Types<BoundaryFlavor, ObjectFlavor>;

class FlavorNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same<T, BoundaryFlavor>::value ? "BoundaryTable"
                                                  : "ObjectTable";
  }
};

TYPED_TEST_SUITE(U64HashMapTest, Flavors, FlavorNames);

TYPED_TEST(U64HashMapTest, EmptyTableFindsNothing) {
  typename TestFixture::Table table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), TestFixture::kMinCapacity);
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(12345), nullptr);
  EXPECT_FALSE(table.Erase(0));
  EXPECT_TRUE(TestFixture::Contents(table).empty());
}

TYPED_TEST(U64HashMapTest, KeyZeroIsAnOrdinaryKey) {
  using Flavor = TypeParam;
  typename TestFixture::Table table;
  table.Insert(0, Flavor::Make(7));
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_EQ(Flavor::Encode(*table.Find(0)), Flavor::Encode(Flavor::Make(7)));
  table.Insert(0, Flavor::Make(9));  // replaces, does not duplicate
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(Flavor::Encode(*table.Find(0)), Flavor::Encode(Flavor::Make(9)));
  auto erased = Flavor::Make(1);
  EXPECT_TRUE(table.Erase(0, &erased));  // hands back the erased value
  EXPECT_EQ(Flavor::Encode(erased), Flavor::Encode(Flavor::Make(9)));
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_FALSE(table.Erase(0));
  EXPECT_EQ(table.size(), 0u);
}

TYPED_TEST(U64HashMapTest, FindReturnsAMutableSlot) {
  using Flavor = TypeParam;
  typename TestFixture::Table table;
  table.Insert(41, Flavor::Make(3));
  *table.Find(41) = Flavor::Make(5);
  EXPECT_EQ(Flavor::Encode(*table.Find(41)), Flavor::Encode(Flavor::Make(5)));
  EXPECT_EQ(table.size(), 1u);
}

TYPED_TEST(U64HashMapTest, ProbeRunWrapsPastTheEndOfTheSlotArray) {
  typename TestFixture::Table table;
  const std::size_t last = table.capacity() - 1;
  // Four keys homed at the last slot fill it and slots 0..2; a key homed
  // at slot 0 is then displaced past the wrapped run, to slot 3.
  const std::vector<std::uint64_t> wrapped =
      TestFixture::KeysHomedAt(table, last, 4);
  const std::uint64_t at_zero = TestFixture::KeysHomedAt(table, 0, 1)[0];
  Reference ref;
  std::uint32_t n = 0;
  for (const std::uint64_t key : wrapped) {
    TestFixture::Put(table, ref, key, n++);
  }
  TestFixture::Put(table, ref, at_zero, n++);
  ASSERT_EQ(table.capacity(), TestFixture::kMinCapacity) << "grew early";
  const std::vector<std::uint64_t> absent =
      TestFixture::KeysHomedAt(table, last, 3, 1000);
  TestFixture::ExpectMatches(table, ref, absent);

  // Erasing the run's head shifts every wrapped member back by one slot,
  // across the array boundary, and the slot-0 key back to slot 2 — the
  // wrap-around case of the "home not cyclically after the hole" test.
  for (const std::uint64_t key : wrapped) {
    ASSERT_TRUE(table.Erase(key));
    ref.erase(key);
    TestFixture::ExpectMatches(table, ref, absent);
  }
  ASSERT_TRUE(table.Erase(at_zero));
  ref.erase(at_zero);
  TestFixture::ExpectMatches(table, ref, absent);
}

TYPED_TEST(U64HashMapTest, EraseFromTheMiddleOfAWrappedRunKeepsHomesReachable) {
  typename TestFixture::Table table;
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
    for (const std::uint64_t key :
         TestFixture::KeysHomedAt(table, slot, count)) {
      keys.push_back(key);
    }
  }
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    typename TestFixture::Table fresh;
    Reference ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      TestFixture::Put(fresh, ref, keys[i], static_cast<std::uint32_t>(i));
    }
    ASSERT_EQ(fresh.capacity(), cap) << "grew early";
    ASSERT_TRUE(fresh.Erase(keys[victim]));
    ref.erase(keys[victim]);
    TestFixture::ExpectMatches(fresh, ref, {keys[victim]});
  }
}

TYPED_TEST(U64HashMapTest, RandomChurnMatchesUnorderedMapThroughGrowth) {
  Rng rng(42);
  typename TestFixture::Table table;
  Reference ref;
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
      if (ref.count(key) == 0) live.push_back(key);
      TestFixture::Put(table, ref, key, static_cast<std::uint32_t>(step));
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
      TestFixture::ExpectMatches(table, ref, {key, key + 1, 0, 8191});
    }
  }
  TestFixture::ExpectMatches(table, ref, {0, 1, 8191, 8192});
  EXPECT_GE(growths, 4u);
  // Drain to empty: every erase must still find its key.
  for (const std::uint64_t key : live) ASSERT_TRUE(table.Erase(key));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(TestFixture::Contents(table).empty());
}

TYPED_TEST(U64HashMapTest, CollidingChurnMatchesUnorderedMap) {
  // Keys in six clusters, each cluster homed at one slot of a 2^17-slot
  // table. A home slot at a smaller capacity is a prefix of the hash bits,
  // so each cluster stays one home slot at every capacity the churn grows
  // through, and the clusters at slots 0, 1, 2 and the top three slots
  // keep probe runs wrapping past the end of the array. Seeded churn
  // erases from the middle of those runs while the table doubles.
  typename TestFixture::Table sizing;
  for (std::uint64_t key = 0; sizing.capacity() < (std::size_t{1} << 17);
       ++key) {
    sizing.Insert(key, TypeParam::Make(1));
  }
  const std::size_t cap = sizing.capacity();
  std::vector<std::uint64_t> keys;
  for (const std::size_t slot : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}, cap - 3, cap - 2, cap - 1}) {
    for (const std::uint64_t key :
         TestFixture::KeysHomedAt(sizing, slot, 48)) {
      keys.push_back(key);
    }
  }

  Rng rng(7);
  typename TestFixture::Table table;
  Reference ref;
  std::size_t growths = 0;
  std::size_t capacity = table.capacity();
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t key = keys[rng.UniformRange(0, keys.size() - 1)];
    if (rng.UniformRange(0, 9) < 6) {
      TestFixture::Put(table, ref, key, static_cast<std::uint32_t>(step));
    } else {
      ASSERT_EQ(table.Erase(key), ref.erase(key) == 1);
    }
    if (table.capacity() != capacity) {
      ++growths;
      capacity = table.capacity();
    }
    ASSERT_EQ(table.size(), ref.size());
    if (step % 101 == 0) TestFixture::ExpectMatches(table, ref, {key});
  }
  TestFixture::ExpectMatches(table, ref, keys);
  EXPECT_GE(growths, 3u);
}

TYPED_TEST(U64HashMapTest, LargeSequentialAndStridedKeys) {
  // Gap boundaries are byte offsets and object ids are often dense;
  // arithmetic progressions are the worst case for a weak hash.
  typename TestFixture::Table table;
  Reference ref;
  std::uint32_t n = 0;
  for (const std::uint64_t stride : {std::uint64_t{1}, std::uint64_t{4096},
                                     std::uint64_t{1} << 32}) {
    for (std::uint64_t i = 0; i < 5000; ++i) {
      TestFixture::Put(table, ref, i * stride, n++);
    }
  }
  TestFixture::ExpectMatches(table, ref,
                             {3, 4097, (std::uint64_t{1} << 32) + 1});
  for (std::uint64_t i = 0; i < 5000; i += 2) {
    ASSERT_TRUE(table.Erase(i * 4096));
    ref.erase(i * 4096);
  }
  TestFixture::ExpectMatches(table, ref, {0, 8192});
}

}  // namespace
}  // namespace cosr
