// Differential and property tests for AddressSpace against the test-side
// std::map reference model (tests/reference/reference_space.h): both are
// driven through identical churn traces (places, removes, single moves,
// batched move plans, checkpoints) and must agree exactly on every query —
// mirroring tests/free_index_test.cc's binned-vs-map pattern one layer
// down. Also covers the batch-specific contracts on both: checkpoint-
// frozen-region violations still CHECK-fail under ApplyMoves, listeners see
// one coherent OnMoves event per batch, and sparse ids ride the overflow
// map.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "reference/reference_space.h"

namespace cosr {
namespace {

// ----------------------------------------------------------- differential

/// Identical queries on both spaces after identical mutations.
void ExpectIdenticalState(const ReferenceSpace& ref_space,
                          const AddressSpace& space) {
  ASSERT_EQ(ref_space.live_volume(), space.live_volume());
  ASSERT_EQ(ref_space.object_count(), space.object_count());
  ASSERT_EQ(ref_space.footprint(), space.footprint());
}

struct LiveObject {
  ObjectId id;
  std::uint64_t length;
};

/// 10k mixed operations (place / remove / move / batched ApplyMoves /
/// checkpoint) through both spaces. Placements and move targets always
/// come from fresh frontier space so the trace is valid under the
/// checkpoint model too; occasional id jumps push AddressSpace into its
/// sparse-overflow map.
void RunDifferentialChurn(std::uint64_t seed, bool checkpointed) {
  Rng rng(seed);
  CheckpointManager ref_manager;
  CheckpointManager manager;
  ReferenceSpace ref_space(checkpointed ? &ref_manager : nullptr);
  AddressSpace space(checkpointed ? &manager : nullptr);
  std::vector<LiveObject> live;
  ObjectId next_id = 1;
  std::uint64_t frontier = 0;

  const auto take_victim = [&](std::size_t k) {
    const LiveObject victim = live[k];
    live[k] = live.back();
    live.pop_back();
    return victim;
  };

  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t dice = rng.UniformU64(100);
    if (live.empty() || dice < 45) {
      // Place at the frontier (sometimes with a gap, sometimes sparse id).
      if (rng.Bernoulli(0.02)) next_id += 1u << 20;  // overflow-map regime
      const std::uint64_t length = rng.UniformRange(1, 512);
      frontier += rng.Bernoulli(0.3) ? rng.UniformRange(0, 64) : 0;
      const Extent extent{frontier, length};
      ref_space.Place(next_id, extent);
      space.Place(next_id, extent);
      live.push_back({next_id, length});
      ++next_id;
      frontier += length;
    } else if (dice < 70) {
      const LiveObject victim =
          take_victim(static_cast<std::size_t>(rng.UniformU64(live.size())));
      ref_space.Remove(victim.id);
      space.Remove(victim.id);
    } else if (dice < 85) {
      // Single move to fresh frontier space.
      const std::size_t k = static_cast<std::size_t>(rng.UniformU64(live.size()));
      const Extent to{frontier, live[k].length};
      ref_space.Move(live[k].id, to);
      space.Move(live[k].id, to);
      frontier += to.length;
    } else if (dice < 95) {
      // Batched move plan: up to 16 distinct objects to fresh space.
      const std::size_t want =
          static_cast<std::size_t>(rng.UniformRange(1, 16));
      std::vector<MovePlan> plan;
      std::vector<LiveObject> movers;
      while (movers.size() < want && !live.empty()) {
        movers.push_back(take_victim(
            static_cast<std::size_t>(rng.UniformU64(live.size()))));
      }
      for (const LiveObject& m : movers) {
        plan.push_back(MovePlan{m.id, {frontier, m.length}});
        frontier += m.length;
        live.push_back(m);
      }
      ref_space.ApplyMoves(plan);
      space.ApplyMoves(plan);
    } else {
      ref_space.Checkpoint();
      space.Checkpoint();
    }

    ExpectIdenticalState(ref_space, space);
    if (op % 97 == 0 || op == 9999) {
      ASSERT_EQ(ref_space.Snapshot(), space.Snapshot()) << "op " << op;
      ASSERT_TRUE(ref_space.SelfCheck()) << "op " << op;
      ASSERT_TRUE(space.SelfCheck()) << "op " << op;
      ASSERT_EQ(ref_manager.frozen_volume(), manager.frozen_volume())
          << "op " << op;
    }
  }
  ASSERT_EQ(ref_space.Snapshot(), space.Snapshot());
}

TEST(AddressSpaceDifferentialTest, ChurnMatchesReference) {
  RunDifferentialChurn(/*seed=*/71, /*checkpointed=*/false);
  RunDifferentialChurn(/*seed=*/72, /*checkpointed=*/false);
}

TEST(AddressSpaceDifferentialTest, CheckpointedChurnMatchesReference) {
  RunDifferentialChurn(/*seed=*/81, /*checkpointed=*/true);
  RunDifferentialChurn(/*seed=*/82, /*checkpointed=*/true);
}

// ----------------------------------------------- slot-table properties

TEST(AddressSpaceIndexTest, SparseIdsUseOverflowMap) {
  AddressSpace space;
  const ObjectId sparse = std::uint64_t{1} << 50;
  space.Place(1, Extent{0, 10});
  space.Place(sparse, Extent{100, 10});
  EXPECT_TRUE(space.contains(sparse));
  EXPECT_EQ(space.extent_of(sparse), (Extent{100, 10}));
  EXPECT_EQ(space.footprint(), 110u);
  space.Move(sparse, Extent{200, 10});
  EXPECT_EQ(space.extent_of(sparse), (Extent{200, 10}));
  space.Remove(sparse);
  EXPECT_FALSE(space.contains(sparse));
  EXPECT_EQ(space.footprint(), 10u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceIndexTest, ManyObjectsKeepOrderedQueriesExact) {
  // Enough objects to force many OffsetIndex page splits; interleaved
  // erases force page drops and min-offset updates.
  AddressSpace space;
  constexpr std::uint64_t kCount = 5000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    space.Place(i + 1, Extent{i * 16, 8});
  }
  EXPECT_EQ(space.footprint(), (kCount - 1) * 16 + 8);
  for (std::uint64_t i = 0; i < kCount; i += 2) {
    space.Remove(i + 1);
  }
  EXPECT_EQ(space.object_count(), kCount / 2);
  const auto snapshot = space.Snapshot();
  ASSERT_EQ(snapshot.size(), kCount / 2);
  for (std::size_t k = 0; k + 1 < snapshot.size(); ++k) {
    ASSERT_LT(snapshot[k].second.offset, snapshot[k + 1].second.offset);
  }
  EXPECT_TRUE(space.SelfCheck());
}

// ------------------------------------------------------- batch semantics

class BatchRecordingListener : public SpaceListener {
 public:
  void OnMove(ObjectId, const Extent&, const Extent&) override {
    ++single_moves;
  }
  void OnMoves(const MoveRecord* records, std::size_t count) override {
    ++batches;
    records_in_batches += count;
    last_batch.assign(records, records + count);
  }
  int single_moves = 0;
  int batches = 0;
  std::size_t records_in_batches = 0;
  std::vector<MoveRecord> last_batch;
};

// Every batch contract holds on AddressSpace (batch-level validation) and
// on the reference (sequential per-move validation) alike.
template <typename SpaceType>
class ApplyMovesTest : public ::testing::Test {};
template <typename SpaceType>
class ApplyMovesDeathTest : public ::testing::Test {};
template <typename SpaceType>
class ApplyMovesCheckpointTest : public ::testing::Test {};
template <typename SpaceType>
class ApplyMovesCheckpointDeathTest : public ::testing::Test {};
using SpaceTypes = ::testing::Types<AddressSpace, ReferenceSpace>;
TYPED_TEST_SUITE(ApplyMovesTest, SpaceTypes);
TYPED_TEST_SUITE(ApplyMovesDeathTest, SpaceTypes);
TYPED_TEST_SUITE(ApplyMovesCheckpointTest, SpaceTypes);
TYPED_TEST_SUITE(ApplyMovesCheckpointDeathTest, SpaceTypes);

TYPED_TEST(ApplyMovesTest, ListenersSeeOneCoherentBatchEvent) {
  TypeParam space;
  BatchRecordingListener listener;
  space.AddListener(&listener);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  space.Place(3, Extent{20, 10});
  const std::vector<MovePlan> plan = {
      {1, {100, 10}}, {2, {110, 10}}, {3, {20, 10}}};  // last is a no-op
  space.ApplyMoves(plan);
  EXPECT_EQ(listener.batches, 1);
  EXPECT_EQ(listener.records_in_batches, 2u);  // no-op dropped
  EXPECT_EQ(listener.single_moves, 0);
  ASSERT_EQ(listener.last_batch.size(), 2u);
  EXPECT_EQ(listener.last_batch[0].id, 1u);
  EXPECT_EQ(listener.last_batch[0].from, (Extent{0, 10}));
  EXPECT_EQ(listener.last_batch[0].to, (Extent{100, 10}));
  // A default (non-overriding) listener fans the same batch out per-move:
  // covered by the differential churn, which compares both spaces'
  // snapshots after every batch.
  EXPECT_TRUE(space.SelfCheck());
}

TYPED_TEST(ApplyMovesTest, BatchMayReuseSpaceVacatedWithinTheBatch) {
  TypeParam space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  // Compact-left shape: 1 slides away first, 2 takes its place.
  const std::vector<MovePlan> plan = {{1, {50, 10}}, {2, {0, 10}}};
  space.ApplyMoves(plan);
  EXPECT_EQ(space.extent_of(1), (Extent{50, 10}));
  EXPECT_EQ(space.extent_of(2), (Extent{0, 10}));
  EXPECT_TRUE(space.SelfCheck());
}

TYPED_TEST(ApplyMovesDeathTest, OverlappingTargetsAbort) {
  TypeParam space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {100, 10}}, {2, {105, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "overlaps");
}

TYPED_TEST(ApplyMovesDeathTest, TargetOverlappingStationaryObjectAborts) {
  TypeParam space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{50, 10});
  const std::vector<MovePlan> plan = {{1, {45, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "overlaps");
}

TYPED_TEST(ApplyMovesDeathTest, LengthMismatchAborts) {
  TypeParam space;
  space.Place(1, Extent{0, 10});
  const std::vector<MovePlan> plan = {{1, {100, 12}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "length");
}

// Checkpoint-frozen-region violations must still CHECK-fail when the moves
// arrive as a batch (the once-per-batch validation may not weaken the
// Section 3.1 durability rules).
TYPED_TEST(ApplyMovesCheckpointDeathTest, BatchedWriteIntoFrozenRegionAborts) {
  CheckpointManager manager;
  TypeParam space(&manager);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{20, 10});
  space.Move(1, Extent{40, 10});  // [0,10) is frozen until a checkpoint
  const std::vector<MovePlan> plan = {{2, {5, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "frozen");
}

TYPED_TEST(ApplyMovesCheckpointDeathTest, BatchedTargetOverlappingSourceAborts) {
  CheckpointManager manager;
  TypeParam space(&manager);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{20, 10});
  // 2's target lands on 1's just-vacated source: legal in the memmove
  // model, forbidden under durability (the old copy must survive).
  const std::vector<MovePlan> plan = {{1, {40, 10}}, {2, {5, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "frozen|overlapping move");
}

TYPED_TEST(ApplyMovesCheckpointDeathTest, BatchedSelfOverlappingMoveAborts) {
  CheckpointManager manager;
  TypeParam space(&manager);
  space.Place(1, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {15, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "overlapping move");
}

TYPED_TEST(ApplyMovesCheckpointTest, DisjointBatchFreezesEverySource) {
  CheckpointManager manager;
  TypeParam space(&manager);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {100, 10}}, {2, {110, 10}}};
  space.ApplyMoves(plan);
  EXPECT_EQ(manager.frozen_volume(), 20u);  // both sources frozen
  space.Checkpoint();
  EXPECT_EQ(manager.frozen_volume(), 0u);
  space.Place(3, Extent{0, 20});  // released space is reusable
  EXPECT_TRUE(space.SelfCheck());
}

// ------------------------------------------------------ reference model

// Spot-check the reference's own footprint bookkeeping and checks (the
// differential churn covers the rest).
TEST(ReferenceSpaceTest, BasicLifecycle) {
  ReferenceSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{100, 5});
  EXPECT_EQ(space.footprint(), 105u);
  space.Move(2, Extent{10, 5});
  EXPECT_EQ(space.footprint(), 15u);
  space.Remove(1);
  EXPECT_EQ(space.footprint(), 15u);
  space.Remove(2);
  EXPECT_EQ(space.footprint(), 0u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(ReferenceSpaceDeathTest, OverlapAndFrozenChecksStillFire) {
  ReferenceSpace space;
  space.Place(1, Extent{0, 10});
  EXPECT_DEATH(space.Place(2, Extent{5, 10}), "overlaps");
  CheckpointManager manager;
  ReferenceSpace ckpt(&manager);
  ckpt.Place(1, Extent{0, 10});
  ckpt.Remove(1);
  EXPECT_DEATH(ckpt.Place(2, Extent{5, 2}), "frozen");
}

}  // namespace
}  // namespace cosr
