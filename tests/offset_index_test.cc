#include "cosr/storage/offset_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cosr/common/random.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace cosr {
namespace {

constexpr std::size_t kChunkPages = OffsetIndex::kPagesPerChunk;

/// Fixed-size churn: `live` entries, then `steps` rounds of erasing a
/// random live entry and inserting a fresh offset at a random position.
/// The low 24 bits keep offsets distinct: 0 for the initial entries, an
/// odd per-step tag for the inserted ones.
void Churn(OffsetIndex* index, std::size_t live, std::size_t steps,
           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    offsets.push_back(std::uint64_t{i} << 24);
    index->Insert(offsets.back(), i);
  }
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t victim = rng.UniformU64(live);
    ASSERT_TRUE(index->Erase(offsets[victim]));
    offsets[victim] = (rng.UniformU64(live) << 24) | (2 * step + 1);
    index->Insert(offsets[victim], step);
  }
  ASSERT_EQ(index->size(), live);
}

TEST(OffsetIndexPoolTest, ChurnRecyclesPagesAndClearReturnsChunks) {
  OffsetIndex index;
  Churn(&index, 300000, 600000, 11);
  ASSERT_TRUE(index.SelfCheck());
  const std::size_t live_pages = index.page_minima().size();
  RecordProperty("live_pages", static_cast<int>(live_pages));
  RecordProperty("pool_pages", static_cast<int>(index.pool_pages()));
  EXPECT_GT(live_pages, 2 * kChunkPages);
  EXPECT_LE(index.pool_pages(), live_pages + kChunkPages);

  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_LE(index.pool_pages(), kChunkPages);
  EXPECT_TRUE(index.SelfCheck());
  // The index is usable again after Clear.
  index.Insert(5, 1);
  EXPECT_EQ(index.Last()->offset, 5u);
  EXPECT_TRUE(index.SelfCheck());
}

TEST(OffsetIndexPoolTest, FreePagesArePoisonedUnderAddressSanitizer) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  OffsetIndex index;
  index.Insert(64, 1);
  const OffsetIndex::Entry* stale = index.Last();
  ASSERT_FALSE(__asan_address_is_poisoned(stale));
  // Erasing the only entry drops its page onto the free list.
  ASSERT_TRUE(index.Erase(64));
  EXPECT_TRUE(__asan_address_is_poisoned(stale));
  EXPECT_DEATH(
      {
        volatile std::uint64_t offset = stale->offset;
        (void)offset;
      },
      "use-after-poison");
  // The next page the index needs is the recycled one, usable again.
  index.Insert(128, 2);
  EXPECT_EQ(index.Last(), stale);
  EXPECT_FALSE(__asan_address_is_poisoned(stale));
  EXPECT_EQ(stale->offset, 128u);
#endif
}

}  // namespace
}  // namespace cosr
