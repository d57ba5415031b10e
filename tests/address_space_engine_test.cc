// Differential and property tests for AddressSpace against the test-side
// std::map reference model (tests/reference/reference_space.h): both are
// driven through identical churn traces (places, removes, single moves,
// batched move plans, checkpoints) and must agree exactly on every query —
// mirroring tests/free_index_test.cc's binned-vs-map pattern one layer
// down. A second differential sends whole flush stages (batches spanning
// three or more index pages, in ascending, descending and shuffled plan
// order) through AddressSpace's one-pass index update. Also covers the
// batch-specific contracts on both: checkpoint-frozen-region violations
// still CHECK-fail under ApplyMoves, listeners see one coherent OnMoves
// event per batch in plan order, overlaps abort at page boundaries too,
// and sparse ids ride the overflow map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/offset_index.h"
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

// ------------------------------------------ flush-shaped differential

constexpr std::size_t kPage = OffsetIndex::kPageCapacity;

enum class PlanOrder { kAscending, kDescending, kShuffled };

/// Puts `plan`, built in ascending source order, into `order`.
void Reorder(PlanOrder order, Rng& rng, std::vector<MovePlan>* plan) {
  if (order == PlanOrder::kDescending) {
    std::reverse(plan->begin(), plan->end());
  } else if (order == PlanOrder::kShuffled) {
    for (std::size_t i = plan->size(); i > 1; --i) {
      std::swap((*plan)[i - 1], (*plan)[rng.UniformU64(i)]);
    }
  }
}

enum BatchKind {
  kWholeEvacuation,      // every object to the frontier
  kRunEvacuation,        // a contiguous run to the frontier (empties pages)
  kScatteredEvacuation,  // about every other object, across all pages
  kIntoWidestGap,        // a run packed into the widest gap between objects
  kCompactLeft,          // a run packed against its predecessor
  kCompactRight,         // a run packed against its successor
  kBatchKinds
};

/// Whole flush stages against the reference. Every batch spans at least
/// three index pages (> 2 * kPageCapacity moves) and reaches AddressSpace
/// in ascending, descending or shuffled plan order. The reference, which
/// validates move by move, gets an order in which each move is legal on
/// its own: the same plan when every target is fresh space, and the
/// sweep order of the compaction otherwise (those batches reuse space
/// their own members vacate, so they run only in the unconstrained
/// model). The final layouts must agree exactly after every batch.
void RunFlushShapedDifferential(std::uint64_t seed, bool checkpointed) {
  Rng rng(seed);
  CheckpointManager ref_manager;
  CheckpointManager manager;
  ReferenceSpace ref_space(checkpointed ? &ref_manager : nullptr);
  AddressSpace space(checkpointed ? &manager : nullptr);
  ObjectId next_id = 1;
  std::uint64_t frontier = 0;  // nothing has ever lived at or above it

  const auto place_at_frontier = [&] {
    frontier += rng.Bernoulli(0.3) ? rng.UniformRange(1, 64) : 0;
    const Extent extent{frontier, rng.UniformRange(1, 512)};
    ref_space.Place(next_id, extent);
    space.Place(next_id, extent);
    ++next_id;
    frontier += extent.length;
  };
  for (std::size_t i = 0; i < 7 * kPage; ++i) place_at_frontier();

  int kinds_run[kBatchKinds] = {};
  int orders_run[3] = {};
  std::size_t largest_batch = 0;
  int gap_batches = 0;
  for (int round = 0; round < 150; ++round) {
    const std::vector<std::pair<ObjectId, Extent>> live = space.Snapshot();
    const std::size_t n = live.size();
    ASSERT_GT(n, 2 * kPage);
    // A contiguous run of more than two pages' worth of objects, a
    // quarter of the time the whole index.
    std::size_t begin = 0;
    std::size_t end = n;
    if (!rng.Bernoulli(0.25)) {
      const std::size_t len =
          static_cast<std::size_t>(rng.UniformRange(2 * kPage + 1, n));
      begin = static_cast<std::size_t>(rng.UniformU64(n - len + 1));
      end = begin + len;
    }
    const int kind = static_cast<int>(
        rng.UniformU64(checkpointed ? kCompactLeft : kBatchKinds));
    const auto order = static_cast<PlanOrder>(rng.UniformU64(3));

    // Targets, in ascending source order.
    std::vector<MovePlan> plan;
    const auto pack_from = [&](std::uint64_t at, std::size_t lo,
                               std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        plan.push_back(MovePlan{live[i].first, {at, live[i].second.length}});
        at += live[i].second.length;
      }
      return at;
    };
    const auto run_volume = [&] {
      std::uint64_t volume = 0;
      for (std::size_t i = begin; i < end; ++i) volume += live[i].second.length;
      return volume;
    };
    switch (kind) {
      case kWholeEvacuation:
        frontier = pack_from(frontier, 0, n);
        break;
      case kRunEvacuation:
        frontier = pack_from(frontier, begin, end);
        break;
      case kScatteredEvacuation:
        for (std::size_t i = 0; i < n; ++i) {
          if (!rng.Bernoulli(0.5)) continue;
          plan.push_back(
              MovePlan{live[i].first, {frontier, live[i].second.length}});
          frontier += live[i].second.length;
        }
        break;
      case kIntoWidestGap: {
        // The space between two neighbors lies in one page's range, so the
        // whole run merges into one page and splits it into several.
        std::size_t widest = 0;
        for (std::size_t i = 1; i < n; ++i) {
          if (live[i].second.offset - live[i - 1].second.end() >
              live[widest + 1].second.offset - live[widest].second.end()) {
            widest = i - 1;
          }
        }
        const std::uint64_t gap_lo = live[widest].second.end();
        const std::uint64_t gap_hi = live[widest + 1].second.offset;
        if (gap_hi - gap_lo >= run_volume()) {
          // Frozen space may sit in the gap; a checkpoint thaws it.
          ref_space.Checkpoint();
          space.Checkpoint();
          pack_from(gap_lo, begin, end);
          ++gap_batches;
        } else {
          frontier = pack_from(frontier, begin, end);
        }
        break;
      }
      case kCompactLeft:
        pack_from(begin == 0 ? 0 : live[begin - 1].second.end(), begin, end);
        break;
      case kCompactRight: {
        const std::uint64_t right =
            end == n ? frontier : live[end].second.offset;
        pack_from(right - run_volume(), begin, end);
        break;
      }
    }
    ++kinds_run[kind];
    ++orders_run[static_cast<int>(order)];
    largest_batch = std::max(largest_batch, plan.size());
    ASSERT_GT(plan.size(), 2 * kPage) << "round " << round;

    // The compactions' sweep order: left to right, or right to left.
    std::vector<MovePlan> reference_plan = plan;
    if (kind == kCompactRight) {
      std::reverse(reference_plan.begin(), reference_plan.end());
    }
    Reorder(order, rng, &plan);
    if (kind < kCompactLeft) reference_plan = plan;  // fresh targets
    ref_space.ApplyMoves(reference_plan);
    space.ApplyMoves(plan);

    ASSERT_EQ(ref_space.Snapshot(), space.Snapshot()) << "round " << round;
    ASSERT_TRUE(space.SelfCheck()) << "round " << round;
    ASSERT_EQ(ref_manager.frozen_volume(), manager.frozen_volume())
        << "round " << round;
    ExpectIdenticalState(ref_space, space);

    // Light churn between flush stages, keeping the population steady.
    for (int i = 0; i < 8; ++i) {
      const std::vector<std::pair<ObjectId, Extent>> now = space.Snapshot();
      if (rng.Bernoulli(0.5) && now.size() > 3 * kPage) {
        const ObjectId victim = now[rng.UniformU64(now.size())].first;
        ref_space.Remove(victim);
        space.Remove(victim);
      } else {
        place_at_frontier();
      }
    }
    if (rng.Bernoulli(0.3)) {
      ref_space.Checkpoint();
      space.Checkpoint();
    }
  }
  ASSERT_TRUE(ref_space.SelfCheck());
  ASSERT_EQ(ref_space.Snapshot(), space.Snapshot());
  for (int kind = 0; kind < (checkpointed ? kCompactLeft : kBatchKinds);
       ++kind) {
    EXPECT_GT(kinds_run[kind], 0) << "batch kind " << kind << " never ran";
  }
  for (const int runs : orders_run) EXPECT_GT(runs, 0);
  EXPECT_GT(gap_batches, 0);
  EXPECT_GT(largest_batch, 5 * kPage);
}

TEST(AddressSpaceDifferentialTest, FlushShapedBatchesMatchReference) {
  RunFlushShapedDifferential(/*seed=*/91, /*checkpointed=*/false);
  RunFlushShapedDifferential(/*seed=*/92, /*checkpointed=*/false);
}

TEST(AddressSpaceDifferentialTest,
     CheckpointedFlushShapedBatchesMatchReference) {
  RunFlushShapedDifferential(/*seed=*/93, /*checkpointed=*/true);
  RunFlushShapedDifferential(/*seed=*/94, /*checkpointed=*/true);
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

TYPED_TEST(ApplyMovesDeathTest, TargetOverlappingObjectOnItsLeftAborts) {
  TypeParam space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{50, 10});
  const std::vector<MovePlan> plan = {{1, {55, 10}}};
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

TYPED_TEST(ApplyMovesTest, DescendingPlanReachesListenersInPlanOrder) {
  // Unpack-right shape over three pages: object i slides from 8i to 16i,
  // rightmost first, so every target reuses space vacated earlier.
  TypeParam space;
  BatchRecordingListener listener;
  space.AddListener(&listener);
  const std::uint64_t n = 3 * kPage;
  for (std::uint64_t i = 0; i < n; ++i) space.Place(i + 1, Extent{i * 8, 8});
  std::vector<MovePlan> plan;
  for (std::uint64_t i = n; i-- > 1;) {
    plan.push_back(MovePlan{i + 1, {i * 16, 8}});
  }
  space.ApplyMoves(plan);
  ASSERT_EQ(listener.batches, 1);
  ASSERT_EQ(listener.last_batch.size(), plan.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const ObjectId id = plan[k].id;
    EXPECT_EQ(listener.last_batch[k].id, id);
    EXPECT_EQ(listener.last_batch[k].from, (Extent{(id - 1) * 8, 8}));
    EXPECT_EQ(listener.last_batch[k].to, plan[k].to);
  }
  EXPECT_TRUE(space.SelfCheck());
}

// ------------------------------------------ batch checks at page bounds

/// Objects i = 0..n-1 (id i + 1) at [64i, 64i + 8) in an AddressSpace, and
/// a bare OffsetIndex fed the same inserts: both split pages at the same
/// entries, so the twin shows where the space's page boundaries fall.
class PagedBatchTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kStride = 64;
  static constexpr std::uint64_t kCount = 6 * kPage;

  void SetUp() override {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      space_.Place(i + 1, Extent{i * kStride, 8});
    }
    ResetTwin();
    ASSERT_GE(twin_.page_minima().size(), 3u);
  }

  void ResetTwin() {
    twin_.Clear();
    for (std::uint64_t i = 0; i < kCount; ++i) twin_.Insert(i * kStride, i + 1);
  }

  /// Index of the object that starts page `p`.
  std::uint64_t PageFront(std::size_t p) const {
    return twin_.page_minima()[p] / kStride;
  }

  /// Applies `plan`'s index edit to the twin, as ApplyMoves would.
  void ApplyToTwin(const std::vector<MovePlan>& plan) {
    std::vector<std::uint64_t> erase;
    std::vector<OffsetIndex::Entry> inserts;
    for (const MovePlan& m : plan) {
      erase.push_back(space_.extent_of(m.id).offset);
      inserts.push_back(OffsetIndex::Entry{m.to.offset, m.id});
    }
    std::sort(erase.begin(), erase.end());
    std::sort(inserts.begin(), inserts.end(),
              [](const OffsetIndex::Entry& a, const OffsetIndex::Entry& b) {
                return a.offset < b.offset;
              });
    ASSERT_TRUE(twin_.ApplyBatch(erase.data(), erase.size(), inserts.data(),
                                 inserts.size()));
  }

  bool StartsPage(std::uint64_t offset) const {
    const std::vector<std::uint64_t>& minima = twin_.page_minima();
    return std::find(minima.begin(), minima.end(), offset) != minima.end();
  }

  AddressSpace space_;
  OffsetIndex twin_;
};

using PagedBatchDeathTest = PagedBatchTest;

TEST_F(PagedBatchDeathTest, TargetsCollidingInsideOnePageAbort) {
  // Two movers from the last page land in one gap of page 1, 4 bytes
  // apart.
  const std::uint64_t gap = (PageFront(1) + 5) * kStride;
  const std::vector<MovePlan> plan = {{kCount, {gap + 16, 8}},
                                      {kCount - 1, {gap + 20, 8}}};
  ApplyToTwin(plan);
  ASSERT_FALSE(StartsPage(gap + 20));
  ASSERT_TRUE(twin_.SelfCheck());
  EXPECT_DEATH(space_.ApplyMoves(plan), "overlaps");
}

TEST_F(PagedBatchDeathTest, TargetOverlappingFirstEntryOfNextPageAborts) {
  // The target ends page 0's range and reaches 4 bytes into the object
  // that starts page 1.
  const std::uint64_t next_front = PageFront(1) * kStride;
  const std::vector<MovePlan> plan = {{kCount, {next_front - 4, 8}}};
  ApplyToTwin(plan);
  ASSERT_TRUE(StartsPage(next_front));
  ASSERT_EQ(twin_.LastBefore(next_front)->offset, next_front - 4);
  EXPECT_DEATH(space_.ApplyMoves(plan), "overlaps");
}

TEST_F(PagedBatchDeathTest, TargetOverlappingLastEntryOfPreviousPageAborts) {
  // Two movers into every gap of page 1 push it past kPageCapacity, so it
  // splits. One mover is shifted onto the stationary object before it,
  // where the split puts that object last in one page and the mover first
  // in the next.
  const std::uint64_t first = PageFront(1);
  const std::uint64_t count = PageFront(2) - first;
  ASSERT_GE(3 * count, kPage);
  std::vector<MovePlan> plan;
  ObjectId mover = kCount;
  for (std::uint64_t i = first; i < first + count; ++i) {
    plan.push_back(MovePlan{mover--, {i * kStride + 16, 8}});
    plan.push_back(MovePlan{mover--, {i * kStride + 32, 8}});
  }
  // Find a mover that the split makes the first entry of a page.
  ApplyToTwin(plan);
  std::size_t k = 0;
  while (k < plan.size() && !StartsPage(plan[k].to.offset)) ++k;
  ASSERT_LT(k, plan.size());
  const std::uint64_t stationary = plan[k].to.offset / kStride * kStride;
  ASSERT_EQ(twin_.LastBefore(plan[k].to.offset)->offset, stationary);
  // Shift it 12 bytes left, onto the stationary object's last 4 bytes:
  // still after it in offset order, so the pages split the same way.
  plan[k].to.offset = stationary + 4;
  ResetTwin();
  ApplyToTwin(plan);
  ASSERT_TRUE(StartsPage(stationary + 4));
  ASSERT_EQ(twin_.LastBefore(stationary + 4)->offset, stationary);
  EXPECT_DEATH(space_.ApplyMoves(plan), "overlaps");
}

TEST_F(PagedBatchDeathTest, DuplicateIdInOneBatchAborts) {
  const std::uint64_t frontier = kCount * kStride;
  const std::vector<MovePlan> plan = {
      {1, {frontier, 8}}, {2, {frontier + 64, 8}}, {1, {frontier + 128, 8}}};
  EXPECT_DEATH(space_.ApplyMoves(plan), "overlaps");
}

TEST_F(PagedBatchTest, BatchSplitsAndDropsPagesWithinCapacity) {
  // Every object into the gap after the last one, in descending plan
  // order: each old page empties, and the last page's range takes all of
  // them.
  std::vector<MovePlan> plan;
  for (std::uint64_t i = kCount; i-- > 0;) {
    plan.push_back(MovePlan{i + 1, {(kCount + i) * kStride, 8}});
  }
  ApplyToTwin(plan);
  EXPECT_TRUE(twin_.SelfCheck());
  EXPECT_GE(twin_.page_minima().size(), kCount / (3 * kPage / 4));
  EXPECT_EQ(twin_.page_minima().front(), kCount * kStride);
  space_.ApplyMoves(plan);
  EXPECT_TRUE(space_.SelfCheck());
  EXPECT_EQ(space_.footprint(), (2 * kCount - 1) * kStride + 8);
  const auto snapshot = space_.Snapshot();
  ASSERT_EQ(snapshot.size(), kCount);
  EXPECT_EQ(snapshot.front().second.offset, kCount * kStride);
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
