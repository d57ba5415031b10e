#include "cosr/storage/address_space.h"
#include "cosr/core/deamortized_reallocator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/factory.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

DeamortizedReallocator::Options WithEpsilon(double eps) {
  DeamortizedReallocator::Options options;
  options.epsilon = eps;
  return options;
}

/// Inserts objects until a flush *begins and survives its triggering op*,
/// at a live volume large enough that plenty of plan work remains. Returns
/// the next unused id.
ObjectId BuildUntilMidFlush(DeamortizedReallocator& realloc, Rng& rng,
                            ObjectId first_id) {
  ObjectId next = first_id;
  // Warm up so the structure (and hence any fresh flush plan) is large.
  while (realloc.volume() < (1u << 14)) {
    EXPECT_TRUE(realloc.Insert(next++, rng.UniformRange(1, 50)).ok());
  }
  for (int i = 0; i < 100000; ++i) {
    const bool before = realloc.flush_in_progress();
    EXPECT_TRUE(realloc.Insert(next++, rng.UniformRange(1, 50)).ok());
    if (!before && realloc.flush_in_progress()) return next;
  }
  ADD_FAILURE() << "no fresh flush observed";
  return next;
}

TEST(DeamortizedTest, BasicInsertDelete) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space, WithEpsilon(0.25));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  ASSERT_TRUE(realloc.Insert(2, 30).ok());
  ASSERT_TRUE(realloc.Delete(1).ok());
  realloc.Quiesce();
  EXPECT_EQ(realloc.volume(), 30u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, SpillsToTailWhenBuffersFull) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space, WithEpsilon(0.25));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  realloc.Quiesce();
  // Tail capacity derives from the volume at the previous flush; force one
  // flush first so the tail is non-trivial, then fill regular buffers.
  Rng rng(1);
  ObjectId next = 10;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(realloc.Insert(next++, rng.UniformRange(1, 60)).ok());
  }
  realloc.Quiesce();
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
  EXPECT_GT(realloc.flush_count(), 0u);
}

TEST(DeamortizedTest, WorstCaseMovedVolumeBounded) {
  // Lemma 3.6 (by construction): a size-w update reallocates at most
  // (work_factor/eps) * w + ∆ volume.
  const double eps = 0.25;
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = eps;
  options.work_factor = 4.0;
  DeamortizedReallocator realloc(&space, options);
  Trace trace = MakeChurnTrace({.operations = 4000,
                                .target_live_volume = 1 << 14,
                                .max_size = 512,
                                .seed = 11});
  std::uint64_t max_size = 0;
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      ASSERT_TRUE(realloc.Insert(r.id, r.size).ok());
      max_size = std::max(max_size, r.size);
    } else {
      ASSERT_TRUE(realloc.Delete(r.id).ok());
    }
  }
  const double per_op_bound =
      (options.work_factor / eps) * static_cast<double>(max_size) +
      static_cast<double>(realloc.delta()) + 1;
  EXPECT_LE(static_cast<double>(realloc.max_op_moved_volume()), per_op_bound);
  EXPECT_GT(realloc.max_op_moved_volume(), 0u);
}

TEST(DeamortizedTest, AmortizedBehaviorMatchesChurn) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space, WithEpsilon(0.25));
  Trace trace = MakeChurnTrace({.operations = 4000,
                                .target_live_volume = 1 << 14,
                                .max_size = 256,
                                .seed = 13});
  CostBattery battery = MakeDefaultBattery();
  RunOptions options;
  options.min_volume_for_ratio = 4096;
  RunReport report = RunTrace(realloc, space, trace, battery, options);
  // Footprint stays (1 + O(eps))-competitive; mid-flush states include the
  // working space, covered by the additive ∆ of Lemma 3.5. Generous bound.
  EXPECT_LE(report.avg_footprint_ratio, 2.5);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, UpdatesDuringFlushGoToLog) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = 0.25;
  options.work_factor = 2.0;  // slow worker: flushes stay open longer
  DeamortizedReallocator realloc(&space, options);
  Rng rng(17);
  ObjectId next = 1;
  std::vector<ObjectId> live;
  bool saw_active = false;
  for (int op = 0; op < 1500; ++op) {
    if (live.size() < 5 || rng.Bernoulli(0.6)) {
      ASSERT_TRUE(realloc.Insert(next, rng.UniformRange(1, 100)).ok());
      live.push_back(next++);
    } else {
      const std::size_t k = rng.UniformU64(live.size());
      ASSERT_TRUE(realloc.Delete(live[k]).ok());
      live[k] = live.back();
      live.pop_back();
    }
    saw_active |= realloc.flush_in_progress();
  }
  EXPECT_TRUE(saw_active);  // the scenario actually exercised the log
  realloc.Quiesce();
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
  for (ObjectId id : live) {
    EXPECT_TRUE(space.contains(id)) << "object " << id;
  }
  EXPECT_EQ(space.object_count(), live.size());
}

TEST(DeamortizedTest, DeleteOfMidFlightObject) {
  // Delete an object while it is being moved by an active flush: the
  // object stays active until the delete drains from the log.
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = 0.25;
  options.work_factor = 2.0;
  DeamortizedReallocator realloc(&space, options);
  Rng rng(19);
  ASSERT_TRUE(realloc.Insert(1, 1).ok());
  BuildUntilMidFlush(realloc, rng, /*first_id=*/2);
  ASSERT_TRUE(realloc.flush_in_progress());
  // Delete an early object (certainly part of the plan); its unit size
  // buys almost no flush work, so the delete stays logged.
  ASSERT_TRUE(realloc.Delete(1).ok());
  ASSERT_TRUE(realloc.flush_in_progress());
  EXPECT_EQ(realloc.Delete(1).code(), StatusCode::kNotFound);  // pending
  realloc.Quiesce();
  EXPECT_FALSE(space.contains(1));
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, InsertThenDeleteWithinSameFlush) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = 0.25;
  options.work_factor = 2.0;
  DeamortizedReallocator realloc(&space, options);
  Rng rng(23);
  BuildUntilMidFlush(realloc, rng, /*first_id=*/1);
  ASSERT_TRUE(realloc.flush_in_progress());
  const ObjectId ephemeral = 999999;
  ASSERT_TRUE(realloc.Insert(ephemeral, 7).ok());
  ASSERT_TRUE(realloc.Delete(ephemeral).ok());
  realloc.Quiesce();
  EXPECT_FALSE(space.contains(ephemeral));
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, ReinsertAfterPendingDeleteRejected) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = 0.25;
  options.work_factor = 2.0;
  DeamortizedReallocator realloc(&space, options);
  Rng rng(29);
  // Object 1 is a unit object, so deleting it later performs only
  // (work_factor/eps)*1 of flush work — far less than the plan needs,
  // keeping the delete pending in the log.
  ASSERT_TRUE(realloc.Insert(1, 1).ok());
  BuildUntilMidFlush(realloc, rng, /*first_id=*/2);
  ASSERT_TRUE(realloc.flush_in_progress());
  ASSERT_TRUE(realloc.Delete(1).ok());
  ASSERT_TRUE(realloc.flush_in_progress());
  ASSERT_GT(realloc.log_size(), 0u);
  // Object 1 is still active (delete pending in the log): same-id insert
  // must fail until the delete completes.
  EXPECT_EQ(realloc.Insert(1, 5).code(), StatusCode::kAlreadyExists);
  realloc.Quiesce();
  EXPECT_TRUE(realloc.Insert(1, 5).ok());
  realloc.Quiesce();
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

/// Exposes the object table's filing of an id.
class FilingProbe : public DeamortizedReallocator {
 public:
  using DeamortizedReallocator::DeamortizedReallocator;
  const ObjectInfo* filing(ObjectId id) const { return objects_.Find(id); }
};

TEST(DeamortizedTest, PendingDeleteMarkSurvivesTheInsertReplay) {
  // A mid-flush insert, then a logged insert big enough to keep the log
  // replay between the two, then the first object's delete. The insert's
  // replay re-files the object into a buffer; until the delete replays, a
  // second Delete of it must keep answering NotFound.
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = 0.25;
  options.work_factor = 2.0;
  FilingProbe realloc(&space, options);
  Rng rng(37);
  ObjectId next = BuildUntilMidFlush(realloc, rng, /*first_id=*/1);
  const ObjectId ephemeral = 999999;
  ASSERT_TRUE(realloc.Insert(ephemeral, 1).ok());
  ASSERT_TRUE(realloc.Insert(next++, 200).ok());
  ASSERT_TRUE(realloc.Delete(ephemeral).ok());
  ASSERT_TRUE(realloc.flush_in_progress());
  const int logged_region = realloc.filing(ephemeral)->region;
  EXPECT_EQ(realloc.Delete(ephemeral).code(), StatusCode::kNotFound);

  bool saw_refiled = false;
  while (space.contains(ephemeral)) {
    const ObjectInfo* info = realloc.filing(ephemeral);
    ASSERT_NE(info, nullptr);
    ASSERT_TRUE(info->pending_delete);
    saw_refiled |= info->region != logged_region;
    ASSERT_EQ(realloc.Delete(ephemeral).code(), StatusCode::kNotFound);
    ASSERT_TRUE(realloc.Insert(next++, 1).ok());
  }
  EXPECT_TRUE(saw_refiled);
  EXPECT_EQ(realloc.filing(ephemeral), nullptr);
  realloc.Quiesce();
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, QuiesceIsIdempotent) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space, WithEpsilon(0.25));
  realloc.Quiesce();
  ASSERT_TRUE(realloc.Insert(1, 10).ok());
  realloc.Quiesce();
  realloc.Quiesce();
  EXPECT_FALSE(realloc.flush_in_progress());
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, NewLargestClassViaTail) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 8).ok());
  ASSERT_TRUE(realloc.Insert(2, 8).ok());  // likely spills / flushes
  // A much larger class arrives while the tail may be nonempty.
  ASSERT_TRUE(realloc.Insert(3, 4096).ok());
  realloc.Quiesce();
  EXPECT_TRUE(space.contains(3));
  EXPECT_EQ(realloc.volume(), 8u + 8u + 4096u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, LoggedInsertLargerThanFlushDeltaReachesTailDisjointly) {
  // Insert(10, 7254) arrives mid-flush, larger than the ∆ the flush
  // reserved between its working space and its log, so the log copy sits
  // closer to its tail slot than its own length. The drain used to move
  // it there in one overlapping move, which the checkpoint policy rejects.
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space);
  ASSERT_TRUE(realloc.Insert(2, 185).ok());
  ASSERT_TRUE(realloc.Insert(4, 2323).ok());
  ASSERT_TRUE(realloc.Insert(5, 293).ok());
  ASSERT_TRUE(realloc.Insert(8, 322).ok());
  ASSERT_TRUE(realloc.flush_in_progress());
  ASSERT_TRUE(realloc.Insert(10, 7254).ok());
  realloc.Quiesce();
  EXPECT_EQ(realloc.volume(), 185u + 2323u + 293u + 322u + 7254u);
  EXPECT_EQ(space.extent_of(10).length, 7254u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DeamortizedTest, ShardedDatabaseBlockTraceRunsToCompletion) {
  // The same defect behind the sync facade: four deamortized shards over
  // a short database-block trace; one shard sees exactly the trace above.
  const Trace trace = MakeDatabaseBlockTrace({.operations = 10,
                                              .blocks = 65536,
                                              .min_size = 64,
                                              .max_size = 8192,
                                              .zipf_s = 0.9,
                                              .seed = 13});
  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = "deamortized";
  spec.shard_count = 4;
  std::unique_ptr<Reallocator> sharded;
  ASSERT_TRUE(MakeReallocator(spec, &parent, &sharded).ok());
  std::uint64_t live = 0;
  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      ASSERT_TRUE(sharded->Insert(request.id, request.size).ok());
      live += request.size;
    } else {
      live -= parent.extent_of(request.id).length;
      ASSERT_TRUE(sharded->Delete(request.id).ok());
    }
  }
  sharded->Quiesce();
  EXPECT_EQ(sharded->volume(), live);
  EXPECT_TRUE(parent.SelfCheck());
}

TEST(DeamortizedTest, ErrorCases) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space, WithEpsilon(0.25));
  EXPECT_EQ(realloc.Insert(1, 0).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(realloc.Insert(1, 8).ok());
  EXPECT_EQ(realloc.Insert(1, 8).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(realloc.Delete(2).code(), StatusCode::kNotFound);
}

TEST(DeamortizedDeathTest, RequiresCheckpointManager) {
  AddressSpace space;
  EXPECT_DEATH(DeamortizedReallocator realloc(&space), "CheckpointManager");
}

}  // namespace
}  // namespace cosr
