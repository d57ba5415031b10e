// Brute-force model fuzzing for the low-level substrates: ExtentSet and the
// exact map-scan free list (tests/reference/map_free_list.h, the reference
// the binned index is differentially tested against) are replayed against
// bitmap oracles over a small address range, checking every query after
// every mutation.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/storage/extent_set.h"
#include "reference/map_free_list.h"

namespace cosr {
namespace {

constexpr std::uint64_t kRange = 1024;

class ExtentSetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentSetFuzz, MatchesBitmapOracle) {
  Rng rng(GetParam());
  ExtentSet set;
  std::vector<bool> bitmap(kRange, false);
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t offset = rng.UniformU64(kRange - 1);
    const std::uint64_t length = rng.UniformRange(1, kRange - offset);
    set.Add(Extent{offset, length});
    for (std::uint64_t a = offset; a < offset + length; ++a) bitmap[a] = true;

    // Validate totals and point membership on a sample.
    std::uint64_t total = 0;
    for (bool b : bitmap) total += b ? 1 : 0;
    ASSERT_EQ(set.total_length(), total) << "step " << step;
    for (int probe = 0; probe < 20; ++probe) {
      const std::uint64_t a = rng.UniformU64(kRange);
      ASSERT_EQ(set.Contains(a), bitmap[a]) << "address " << a;
    }
    // Validate interval queries on a sample.
    for (int probe = 0; probe < 10; ++probe) {
      const std::uint64_t qo = rng.UniformU64(kRange - 1);
      const std::uint64_t ql = rng.UniformRange(1, kRange - qo);
      bool any = false;
      for (std::uint64_t a = qo; a < qo + ql; ++a) any |= bitmap[a];
      ASSERT_EQ(set.Intersects(Extent{qo, ql}), any);
    }
    // Intervals must stay disjoint and maximal.
    const auto intervals = set.ToVector();
    for (std::size_t i = 0; i + 1 < intervals.size(); ++i) {
      ASSERT_LT(intervals[i].end(), intervals[i + 1].offset);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentSetFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u));

/// Bitmap oracle for the free list: true = free below the frontier.
struct FreeOracle {
  std::vector<bool> free;  // indexed address; size == frontier
  std::optional<std::uint64_t> FirstFit(std::uint64_t size) const {
    std::uint64_t run = 0;
    for (std::uint64_t a = 0; a < free.size(); ++a) {
      run = free[a] ? run + 1 : 0;
      if (run == size) return a + 1 - size;
    }
    return std::nullopt;
  }
  /// Start of the shortest maximal free run of length >= size, lowest
  /// offset on ties.
  std::optional<std::uint64_t> BestFit(std::uint64_t size) const {
    std::optional<std::uint64_t> best;
    std::uint64_t best_run = 0;
    std::uint64_t a = 0;
    while (a < free.size()) {
      if (!free[a]) {
        ++a;
        continue;
      }
      const std::uint64_t start = a;
      while (a < free.size() && free[a]) ++a;
      const std::uint64_t run = a - start;
      if (run >= size && (!best.has_value() || run < best_run)) {
        best = start;
        best_run = run;
      }
    }
    return best;
  }
};

class FreeListFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FreeListFuzz, MatchesBitmapOracle) {
  Rng rng(GetParam());
  // The bitmap oracle implements exact lowest-offset first fit and
  // tightest-gap best fit, which only the map-scan reference guarantees;
  // the binned index's bin-granular queries are fuzzed differentially
  // against this reference in tests/free_index_test.cc.
  MapFreeList list;
  FreeOracle oracle;
  struct Allocation {
    std::uint64_t offset;
    std::uint64_t size;
  };
  std::vector<Allocation> live;

  for (int step = 0; step < 600; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const std::uint64_t size = rng.UniformRange(1, 24);
      // Mirror a first-fit allocator on both sides.
      const auto fit = list.FindFirstFit(size);
      const auto oracle_fit = oracle.FirstFit(size);
      ASSERT_EQ(fit, oracle_fit) << "step " << step;
      ASSERT_EQ(list.FindBestFit(size), oracle.BestFit(size))
          << "step " << step;
      const std::uint64_t offset = fit.value_or(list.frontier());
      list.Reserve(offset, size);
      if (offset + size > oracle.free.size()) {
        oracle.free.resize(offset + size, true);
      }
      for (std::uint64_t a = offset; a < offset + size; ++a) {
        ASSERT_TRUE(a >= oracle.free.size() || oracle.free[a] ||
                    oracle_fit.has_value() == false);
        oracle.free[a] = false;
      }
      live.push_back({offset, size});
    } else {
      const std::size_t k = rng.UniformU64(live.size());
      const Allocation a = live[k];
      live[k] = live.back();
      live.pop_back();
      list.Release(Extent{a.offset, a.size});
      for (std::uint64_t x = a.offset; x < a.offset + a.size; ++x) {
        oracle.free[x] = true;
      }
      // Trim the oracle's trailing free run to mirror the frontier rule.
      while (!oracle.free.empty() && oracle.free.back()) {
        oracle.free.pop_back();
      }
    }
    ASSERT_EQ(list.frontier(), oracle.free.size()) << "step " << step;
    std::uint64_t free_volume = 0;
    for (bool b : oracle.free) free_volume += b ? 1 : 0;
    ASSERT_EQ(list.free_volume(), free_volume) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreeListFuzz,
                         ::testing::Values(55u, 66u, 77u, 88u));

}  // namespace
}  // namespace cosr
