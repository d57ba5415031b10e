#include "cosr/storage/address_space.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cosr/storage/checkpoint_manager.h"
#include "reference/reference_space.h"

namespace cosr {
namespace {

TEST(AddressSpaceTest, PlaceAndQuery) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 5});
  EXPECT_TRUE(space.contains(1));
  EXPECT_FALSE(space.contains(3));
  EXPECT_EQ(space.extent_of(2), (Extent{10, 5}));
  EXPECT_EQ(space.footprint(), 15u);
  EXPECT_EQ(space.live_volume(), 15u);
  EXPECT_EQ(space.object_count(), 2u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceTest, RemoveFreesSpace) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{100, 5});
  space.Remove(2);
  EXPECT_EQ(space.footprint(), 10u);
  EXPECT_EQ(space.live_volume(), 10u);
  space.Place(3, Extent{100, 5});  // reuse is fine without checkpoints
  EXPECT_EQ(space.footprint(), 105u);
}

TEST(AddressSpaceTest, MoveUpdatesIndexes) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Move(1, Extent{50, 10});
  EXPECT_EQ(space.extent_of(1), (Extent{50, 10}));
  EXPECT_EQ(space.footprint(), 60u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceTest, SelfOverlappingMoveAllowedWithoutCheckpoints) {
  AddressSpace space;
  space.Place(1, Extent{10, 10});
  space.Move(1, Extent{5, 10});  // overlaps old position: memmove semantics
  EXPECT_EQ(space.extent_of(1).offset, 5u);
}

TEST(AddressSpaceDeathTest, OverlappingPlaceAborts) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  EXPECT_DEATH(space.Place(2, Extent{5, 10}), "overlaps");
}

TEST(AddressSpaceDeathTest, OverlappingMoveOntoNeighborAborts) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{20, 10});
  EXPECT_DEATH(space.Move(2, Extent{5, 10}), "overlaps");
}

TEST(AddressSpaceDeathTest, DoublePlaceAborts) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  EXPECT_DEATH(space.Place(1, Extent{100, 10}), "already placed");
}

TEST(AddressSpaceTest, FootprintIsLargestEnd) {
  AddressSpace space;
  EXPECT_EQ(space.footprint(), 0u);
  space.Place(1, Extent{100, 50});
  space.Place(2, Extent{0, 10});
  EXPECT_EQ(space.footprint(), 150u);
}

// footprint() is read off the offset index in AddressSpace and maintained
// incrementally in the reference; the shrink side (the rightmost object
// leaving) is the case both must get right.
template <typename SpaceType>
void ExpectFootprintTracksRightmostObject() {
  SpaceType space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{40, 20});
  space.Place(3, Extent{100, 5});
  EXPECT_EQ(space.footprint(), 105u);
  space.Remove(3);  // rightmost leaves: next-rightmost takes over
  EXPECT_EQ(space.footprint(), 60u);
  space.Move(2, Extent{200, 20});  // rightmost moves right
  EXPECT_EQ(space.footprint(), 220u);
  space.Move(2, Extent{12, 20});  // rightmost moves left past object 1
  EXPECT_EQ(space.footprint(), 32u);
  space.Remove(2);
  EXPECT_EQ(space.footprint(), 10u);
  space.Remove(1);
  EXPECT_EQ(space.footprint(), 0u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceTest, FootprintShrinksWhenRightmostObjectLeaves) {
  ExpectFootprintTracksRightmostObject<AddressSpace>();
  ExpectFootprintTracksRightmostObject<ReferenceSpace>();
}

TEST(AddressSpaceTest, SnapshotInOffsetOrder) {
  AddressSpace space;
  space.Place(1, Extent{50, 10});
  space.Place(2, Extent{0, 10});
  space.Place(3, Extent{20, 10});
  const auto snapshot = space.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, 2u);
  EXPECT_EQ(snapshot[1].first, 3u);
  EXPECT_EQ(snapshot[2].first, 1u);
}

class RecordingListener : public SpaceListener {
 public:
  void OnPlace(ObjectId id, const Extent&) override {
    events.push_back("P" + std::to_string(id));
  }
  void OnMove(ObjectId id, const Extent&, const Extent&) override {
    events.push_back("M" + std::to_string(id));
  }
  void OnRemove(ObjectId id, const Extent&) override {
    events.push_back("R" + std::to_string(id));
  }
  void OnCheckpoint(std::uint64_t seq) override {
    events.push_back("C" + std::to_string(seq));
  }
  std::vector<std::string> events;
};

TEST(AddressSpaceTest, ListenersObserveAllEvents) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  RecordingListener listener;
  space.AddListener(&listener);
  space.Place(1, Extent{0, 4});
  space.Move(1, Extent{10, 4});
  space.Checkpoint();
  space.Remove(1);
  ASSERT_EQ(listener.events.size(), 4u);
  EXPECT_EQ(listener.events[0], "P1");
  EXPECT_EQ(listener.events[1], "M1");
  EXPECT_EQ(listener.events[2], "C1");
  EXPECT_EQ(listener.events[3], "R1");
}

TEST(AddressSpaceTest, RemoveListenerStopsNotifications) {
  AddressSpace space;
  RecordingListener listener;
  space.AddListener(&listener);
  space.Place(1, Extent{0, 4});
  space.RemoveListener(&listener);
  space.Place(2, Extent{10, 4});
  EXPECT_EQ(listener.events.size(), 1u);
}

TEST(AddressSpaceTest, NoOpMoveIsIgnored) {
  AddressSpace space;
  RecordingListener listener;
  space.Place(1, Extent{0, 4});
  space.AddListener(&listener);
  space.Move(1, Extent{0, 4});
  EXPECT_TRUE(listener.events.empty());
}

// --- Checkpoint policy enforcement (the Section 3.1 durability model) ---

TEST(AddressSpaceCheckpointTest, FreedRegionFrozenUntilCheckpoint) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Remove(1);
  EXPECT_EQ(manager.frozen_volume(), 10u);
  space.Checkpoint();
  EXPECT_EQ(manager.frozen_volume(), 0u);
  space.Place(2, Extent{0, 10});  // now legal
}

TEST(AddressSpaceCheckpointDeathTest, WriteIntoFreedRegionAborts) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Remove(1);
  EXPECT_DEATH(space.Place(2, Extent{5, 2}), "frozen");
}

TEST(AddressSpaceCheckpointDeathTest, MoveSourceFrozen) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Move(1, Extent{20, 10});
  // The old copy at [0,10) must survive until the checkpoint.
  EXPECT_DEATH(space.Place(2, Extent{0, 10}), "frozen");
}

TEST(AddressSpaceCheckpointDeathTest, SelfOverlappingMoveForbidden) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{10, 10});
  EXPECT_DEATH(space.Move(1, Extent{5, 10}), "overlapping move");
}

TEST(AddressSpaceCheckpointTest, MoveTargetReusableAfterCheckpoint) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Move(1, Extent{20, 10});
  space.Checkpoint();
  space.Place(2, Extent{0, 10});
  EXPECT_EQ(space.object_count(), 2u);
}

// The dense slot table admits a fresh id below size + size / 2 + 4096
// (the overflow cutoff) and keeps 2^17 slots per chunk.
constexpr ObjectId kSlotChunk = ObjectId{1} << 17;

ObjectId OverflowCutoff(ObjectId dense_size) {
  return dense_size + dense_size / 2 + 4096;
}

TEST(AddressSpaceSlotTest, IdsAtTheOverflowCutoff) {
  AddressSpace space;
  // The cutoff itself spills to the overflow map; the id below it grows the
  // table to 4096 slots and moves the cutoff past the spilled id.
  ASSERT_TRUE(space.TryPlace(OverflowCutoff(0), Extent{0, 8}));
  ASSERT_TRUE(space.TryPlace(OverflowCutoff(0) - 1, Extent{8, 8}));
  const ObjectId spilled = OverflowCutoff(4096);
  ASSERT_TRUE(space.TryPlace(spilled, Extent{16, 8}));
  ASSERT_TRUE(space.TryPlace(spilled - 1, Extent{24, 8}));
  ASSERT_TRUE(space.TryPlace(OverflowCutoff(spilled) - 1, Extent{40, 8}));
  EXPECT_TRUE(space.SelfCheck());
  // Both spilled ids now lie below the dense size with empty dense slots:
  // they still resolve, and a second place of either is refused.
  for (const ObjectId id : {OverflowCutoff(0), spilled}) {
    EXPECT_TRUE(space.contains(id));
    EXPECT_FALSE(space.TryPlace(id, Extent{100, 8})) << id;
  }
  EXPECT_EQ(space.extent_of(spilled), (Extent{16, 8}));
  space.Remove(spilled);
  EXPECT_FALSE(space.contains(spilled));
  // Placed again, the id takes its dense slot.
  ASSERT_TRUE(space.TryPlace(spilled, Extent{32, 8}));
  EXPECT_EQ(space.extent_of(spilled), (Extent{32, 8}));
  EXPECT_EQ(space.object_count(), 5u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceSlotTest, IdsAroundTheFirstChunkBoundary) {
  AddressSpace space;
  std::uint64_t offset = 0;
  const auto place = [&](ObjectId id) {
    offset += 16;
    return space.TryPlace(id, Extent{offset, 8});
  };
  // Placed while the table is small, the boundary id spills to overflow.
  ASSERT_TRUE(place(kSlotChunk));
  // Grow the table one cutoff step at a time (4095, 10239, ...) until every
  // id up to kSlotChunk + 1 is dense-eligible.
  ObjectId dense = 0;
  while (OverflowCutoff(dense) <= kSlotChunk + 1) {
    const ObjectId id = OverflowCutoff(dense) - 1;
    ASSERT_TRUE(place(id));
    dense = id + 1;
  }
  ASSERT_LT(dense, kSlotChunk - 1);
  // The last slot of chunk 0 and the first two of chunk 1; kSlotChunk is
  // already placed (in overflow), so its dense slot must stay refused.
  ASSERT_TRUE(place(kSlotChunk - 1));
  ASSERT_TRUE(place(kSlotChunk + 1));
  EXPECT_FALSE(place(kSlotChunk));
  const Extent before = space.extent_of(kSlotChunk);
  for (const ObjectId id : {kSlotChunk - 1, kSlotChunk, kSlotChunk + 1}) {
    EXPECT_FALSE(space.TryPlace(id, Extent{1u << 30, 8})) << id;
    EXPECT_TRUE(space.contains(id)) << id;
  }
  EXPECT_EQ(space.extent_of(kSlotChunk), before);
  EXPECT_TRUE(space.SelfCheck());
  for (const ObjectId id : {kSlotChunk - 1, kSlotChunk, kSlotChunk + 1}) {
    space.Remove(id);
    EXPECT_FALSE(space.contains(id)) << id;
    ASSERT_TRUE(place(id)) << id;
    EXPECT_EQ(space.extent_of(id), (Extent{offset, 8}));
  }
  EXPECT_TRUE(space.SelfCheck());
}

}  // namespace
}  // namespace cosr
