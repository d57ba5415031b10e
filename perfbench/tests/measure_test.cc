// Tests of the benchmark's measurement code: percentile selection, span
// self-time subtraction, the per-request written-bytes listener and the
// recovered-layout comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "cosr/durability/log_sink.h"
#include "cosr/durability/move_log.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/storage/address_space.h"
#include "measure.h"

namespace perfbench {
namespace {

TEST(PercentileTest, MatchesSortedOracle) {
  std::mt19937_64 rng(7);
  for (std::size_t n : {1u, 2u, 3u, 10u, 999u, 1000u, 1001u, 20000u}) {
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng() % 5000;
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::size_t rank =
          static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
      rank = std::clamp<std::size_t>(rank, 1, n);
      std::vector<std::uint64_t> scratch = values;
      EXPECT_EQ(Percentile(scratch, q), sorted[rank - 1])
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileTest, EdgeCases) {
  std::vector<std::uint64_t> empty;
  EXPECT_EQ(Percentile(empty, 0.5), 0u);
  std::vector<std::uint64_t> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(values, 1.0), 5u);
  EXPECT_EQ(Percentile(values, 0.5), 3u);  // ceil(2.5) = 3rd smallest
  EXPECT_EQ(Percentile(values, 0.0), 1u);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SpanTracerTest, SelfTimeSubtractsNestedChildren) {
  SpanTracer t;
  // facade [0, 100) holds place [10, 30) (which holds a listener
  // [15, 20)) and apply-moves [40, 70); a lookup [200, 210) stands alone.
  t.Begin(Layer::kFacade, 0);
  t.Begin(Layer::kSpacePlace, 10);
  t.Begin(Layer::kListener, 15);
  t.End(20);
  t.End(30);
  t.Begin(Layer::kSpaceApplyMoves, 40);
  t.End(70);
  t.End(100);
  t.Begin(Layer::kSpaceLookup, 200);
  t.End(210);
  EXPECT_EQ(t.open_spans(), 0u);

  EXPECT_EQ(t.totals(Layer::kFacade).calls, 1u);
  EXPECT_EQ(t.totals(Layer::kFacade).total_ns, 100u);
  EXPECT_EQ(t.totals(Layer::kFacade).self_ns, 50u);
  EXPECT_EQ(t.totals(Layer::kSpacePlace).total_ns, 20u);
  EXPECT_EQ(t.totals(Layer::kSpacePlace).self_ns, 15u);
  EXPECT_EQ(t.totals(Layer::kListener).self_ns, 5u);
  EXPECT_EQ(t.totals(Layer::kSpaceApplyMoves).self_ns, 30u);
  EXPECT_EQ(t.totals(Layer::kSpaceLookup).self_ns, 10u);

  // Self times of a tree sum to the roots' durations.
  std::uint64_t self = 0;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    self += t.totals(static_cast<Layer>(l)).self_ns;
  }
  EXPECT_EQ(self, 110u);
}

TEST(SpanTracerTest, RepeatedSpansAccumulateAndResetClears) {
  SpanTracer t;
  for (std::uint64_t i = 0; i < 3; ++i) {
    t.Begin(Layer::kFacade, i * 10);
    t.Begin(Layer::kSpaceRemove, i * 10 + 2);
    t.End(i * 10 + 5);
    t.End(i * 10 + 8);
  }
  EXPECT_EQ(t.totals(Layer::kFacade).calls, 3u);
  EXPECT_EQ(t.totals(Layer::kFacade).self_ns, 15u);
  EXPECT_EQ(t.totals(Layer::kSpaceRemove).self_ns, 9u);
  t.Reset();
  EXPECT_EQ(t.totals(Layer::kFacade).calls, 0u);
  EXPECT_EQ(t.totals(Layer::kSpaceRemove).total_ns, 0u);
}

TEST(WrittenBytesListenerTest, AttributesPlacesAndMovesPerRequest) {
  cosr::AddressSpace space;
  WrittenBytesListener listener;
  space.AddListener(&listener);

  space.Place(1, cosr::Extent{0, 10});
  EXPECT_EQ(listener.TakeRequest(), 10u);
  space.Place(2, cosr::Extent{10, 5});
  EXPECT_EQ(listener.TakeRequest(), 5u);

  // One request that moves both objects (15 bytes) and places a third (7).
  std::vector<cosr::MovePlan> plans = {{1, cosr::Extent{100, 10}},
                                       {2, cosr::Extent{200, 5}}};
  space.ApplyMoves(plans);
  space.Move(1, cosr::Extent{300, 10});
  space.Place(3, cosr::Extent{0, 7});
  EXPECT_EQ(listener.TakeRequest(), 10u + 5u + 10u + 7u);

  // A delete writes nothing.
  space.Remove(2);
  EXPECT_EQ(listener.TakeRequest(), 0u);

  EXPECT_EQ(listener.placed_bytes(), 10u + 5u + 7u);
  EXPECT_EQ(listener.moved_bytes(), 25u);
  EXPECT_EQ(listener.moves(), 3u);
  space.RemoveListener(&listener);
}

TEST(LayoutsMatchTest, RecoveredLogMatchesAndPerturbationIsRejected) {
  cosr::MemoryLogSink sink;
  cosr::MoveLog log(&sink);
  cosr::AddressSpace space;
  space.AddListener(&log);
  space.Place(1, cosr::Extent{0, 8});
  space.Place(2, cosr::Extent{8, 4});
  space.Place(3, cosr::Extent{12, 16});
  space.ApplyMoves(std::vector<cosr::MovePlan>{{2, cosr::Extent{40, 4}}});
  space.Remove(1);
  log.LogCheckpoint(1);
  space.RemoveListener(&log);

  cosr::AddressSpace recovered;
  cosr::RecoveryResult result;
  ASSERT_TRUE(cosr::RecoveryManager::Recover(sink.data().data(),
                                             sink.data().size(), &recovered,
                                             &result)
                  .ok());
  const Layout live = space.Snapshot();
  const Layout back = recovered.Snapshot();
  std::string why;
  EXPECT_TRUE(LayoutsMatch(live, back, &why)) << why;

  Layout shifted = back;
  shifted[1].second.offset += 1;
  EXPECT_FALSE(LayoutsMatch(live, shifted, &why));
  EXPECT_NE(why.find("entry 1"), std::string::npos) << why;

  Layout resized = back;
  resized[0].second.length -= 1;
  EXPECT_FALSE(LayoutsMatch(live, resized, &why));

  Layout renamed = back;
  renamed[0].first = 99;
  EXPECT_FALSE(LayoutsMatch(live, renamed, &why));

  Layout shorter = back;
  shorter.pop_back();
  EXPECT_FALSE(LayoutsMatch(live, shorter, &why));
  EXPECT_NE(why.find("extents"), std::string::npos) << why;
}

}  // namespace
}  // namespace perfbench
