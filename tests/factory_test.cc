#include "cosr/storage/address_space.h"
#include "cosr/realloc/factory.h"

#include <gtest/gtest.h>

#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

TEST(FactoryTest, KnownAlgorithmsListed) {
  const auto& algorithms = KnownAlgorithms();
  EXPECT_EQ(algorithms.size(), 10u);
  EXPECT_EQ(algorithms.front(), "first-fit");
  EXPECT_EQ(algorithms.back(), "deamortized");
}

TEST(FactoryTest, CreatesEveryAlgorithm) {
  for (const std::string& name : KnownAlgorithms()) {
    std::unique_ptr<CheckpointManager> manager;
    if (AlgorithmNeedsCheckpointManager(name)) {
      manager = std::make_unique<CheckpointManager>();
    }
    AddressSpace space(manager.get());
    ReallocatorSpec spec;
    spec.algorithm = name;
    std::unique_ptr<Reallocator> realloc;
    ASSERT_EQ(MakeReallocator(spec, &space, &realloc).ToString(), "Ok")
        << name;
    ASSERT_NE(realloc, nullptr) << name;
    // String comparison, not pointer EQ: literal merging made the old
    // pointer form pass only in optimized builds. Only the oracle pins an
    // exact name here; the others are covered by ReportedNamesMatchSpec.
    if (name == "oracle") {
      EXPECT_STREQ(realloc->name(), "oracle");
    }
    const std::uint64_t size = name == "pma" ? 1 : 64;
    ASSERT_TRUE(realloc->Insert(1, size).ok()) << name;
    ASSERT_TRUE(realloc->Delete(1).ok()) << name;
    realloc->Quiesce();
    EXPECT_EQ(realloc->volume(), 0u) << name;
  }
}

TEST(FactoryTest, ReportedNamesMatchSpec) {
  AddressSpace space;
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  std::unique_ptr<Reallocator> realloc;
  ASSERT_TRUE(MakeReallocator(spec, &space, &realloc).ok());
  EXPECT_STREQ(realloc->name(), "cost-oblivious");
}

TEST(FactoryTest, UnknownAlgorithmRejected) {
  AddressSpace space;
  ReallocatorSpec spec;
  spec.algorithm = "quantum";
  std::unique_ptr<Reallocator> realloc;
  EXPECT_EQ(MakeReallocator(spec, &space, &realloc).code(),
            StatusCode::kInvalidArgument);
}

TEST(FactoryTest, ManagerRequirementEnforcedBothWays) {
  std::unique_ptr<Reallocator> realloc;
  {
    AddressSpace bare;
    ReallocatorSpec spec;
    spec.algorithm = "checkpointed";
    EXPECT_EQ(MakeReallocator(spec, &bare, &realloc).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    CheckpointManager manager;
    AddressSpace managed(&manager);
    ReallocatorSpec spec;
    spec.algorithm = "cost-oblivious";
    EXPECT_EQ(MakeReallocator(spec, &managed, &realloc).code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(FactoryTest, NeedsManagerPredicate) {
  EXPECT_TRUE(AlgorithmNeedsCheckpointManager("checkpointed"));
  EXPECT_TRUE(AlgorithmNeedsCheckpointManager("deamortized"));
  EXPECT_FALSE(AlgorithmNeedsCheckpointManager("cost-oblivious"));
  EXPECT_FALSE(AlgorithmNeedsCheckpointManager("first-fit"));
}

TEST(FactoryTest, FirstAndBestFitReuseTheOldestGap) {
  // Lay out three same-size objects with live separators, then delete them
  // in the order B, A, C: three length-16 gaps at offsets 24, 0, 48 whose
  // release order differs from address order. Both allocators serve the
  // next same-size insert from the oldest gap of its size bin.
  for (const std::string algorithm : {"first-fit", "best-fit"}) {
    AddressSpace space;
    ReallocatorSpec spec;
    spec.algorithm = algorithm;
    std::unique_ptr<Reallocator> realloc;
    ASSERT_TRUE(MakeReallocator(spec, &space, &realloc).ok());
    EXPECT_STREQ(realloc->name(), algorithm.c_str());
    const ObjectId a = 1, b = 2, c = 3, probe = 100;
    ObjectId separator = 10;
    for (const ObjectId id : {a, b, c}) {
      ASSERT_TRUE(realloc->Insert(id, 16).ok());
      ASSERT_TRUE(realloc->Insert(separator++, 8).ok());
    }
    for (const ObjectId id : {b, a, c}) {
      ASSERT_TRUE(realloc->Delete(id).ok());
    }
    ASSERT_TRUE(realloc->Insert(probe, 16).ok());
    EXPECT_EQ(space.extent_of(probe).offset, 24u) << algorithm;
  }
}

TEST(FactoryTest, FirstAndBestFitPlaceIdenticallyUnderChurn) {
  const Trace trace = MakeChurnTrace({.operations = 20000,
                                      .target_live_volume = 1u << 16,
                                      .min_size = 1,
                                      .max_size = 1024,
                                      .seed = 31});
  AddressSpace first_space;
  AddressSpace best_space;
  std::unique_ptr<Reallocator> first;
  std::unique_ptr<Reallocator> best;
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ASSERT_TRUE(MakeReallocator(spec, &first_space, &first).ok());
  spec.algorithm = "best-fit";
  ASSERT_TRUE(MakeReallocator(spec, &best_space, &best).ok());
  std::size_t op = 0;
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      ASSERT_TRUE(first->Insert(r.id, r.size).ok());
      ASSERT_TRUE(best->Insert(r.id, r.size).ok());
      ASSERT_EQ(first_space.extent_of(r.id), best_space.extent_of(r.id))
          << "op " << op;
    } else {
      ASSERT_TRUE(first->Delete(r.id).ok());
      ASSERT_TRUE(best->Delete(r.id).ok());
    }
    ASSERT_EQ(first->reserved_footprint(), best->reserved_footprint())
        << "op " << op;
    ++op;
  }
  EXPECT_EQ(first_space.Snapshot(), best_space.Snapshot());
}

TEST(FactoryTest, NullArgumentsRejected) {
  AddressSpace space;
  std::unique_ptr<Reallocator> realloc;
  EXPECT_FALSE(MakeReallocator(ReallocatorSpec{}, nullptr, &realloc).ok());
  EXPECT_FALSE(MakeReallocator(ReallocatorSpec{}, &space, nullptr).ok());
}

}  // namespace
}  // namespace cosr
