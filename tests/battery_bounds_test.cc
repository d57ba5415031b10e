// The paper's per-op bounds as exact gates on the whole scenario battery:
// every scenario (the four adversaries included), seeds 1-3, eps = 1/k for
// k in {2, 4, 8}. All comparisons are in integer arithmetic with no slack.
//  * Theorem 2.1 (cost-oblivious): reserved footprint <= (1 + 4 eps) V
//    after every op once V >= 1024, i.e. k * reserved <= (k + 4) * V.
//  * Lemma 3.6 (deamortized): the volume moved by any op of size w is at
//    most (4/eps) w + ∆ = 4k w + delta(), and no op takes more than
//    8k + 8 checkpoints.
//  * Lemma 3.3 (checkpointed): a flush takes at most 6k + 4 checkpoints.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/scenario.h"
#include "cosr/workload/trace.h"

namespace cosr {
namespace {

constexpr std::uint64_t kMinVolumeForRatio = 1024;

void Apply(Reallocator& realloc, const Request& r) {
  if (r.type == Request::Type::kInsert) {
    ASSERT_TRUE(realloc.Insert(r.id, r.size).ok());
  } else {
    ASSERT_TRUE(realloc.Delete(r.id).ok());
  }
}

void CheckCostOblivious(const Trace& trace, std::uint64_t k) {
  AddressSpace space;
  CostObliviousReallocator realloc(
      &space, CostObliviousReallocator::Options{1.0 / static_cast<double>(k)});
  std::uint64_t violations = 0;
  for (const Request& r : trace.requests()) {
    Apply(realloc, r);
    const std::uint64_t volume = realloc.volume();
    if (volume >= kMinVolumeForRatio &&
        k * realloc.reserved_footprint() > (k + 4) * volume) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0u) << "ops over (1 + 4 eps) V";
}

void CheckDeamortized(const Trace& trace, std::uint64_t k) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(
      &space,
      DeamortizedReallocator::Options{1.0 / static_cast<double>(k), 4.0});
  std::uint64_t violations = 0;
  for (const Request& r : trace.requests()) {
    const std::uint64_t size = r.type == Request::Type::kInsert
                                   ? r.size
                                   : space.extent_of(r.id).length;
    const std::uint64_t moved_before = realloc.moved_volume();
    Apply(realloc, r);
    if (realloc.moved_volume() - moved_before >
        4 * k * size + realloc.delta()) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0u) << "ops over (4/eps) w + delta moved volume";
  EXPECT_LE(realloc.max_checkpoints_per_op(), 8 * k + 8);
}

void CheckCheckpointed(const Trace& trace, std::uint64_t k) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  CheckpointedReallocator realloc(
      &space, CheckpointedReallocator::Options{1.0 / static_cast<double>(k)});
  for (const Request& r : trace.requests()) Apply(realloc, r);
  EXPECT_LE(realloc.max_checkpoints_per_flush(), 6 * k + 4);
}

TEST(BatteryBoundsTest, EveryScenarioSeedAndEpsilon) {
  int cells = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ScenarioBatteryOptions options;
    options.seed = seed;
    for (const Scenario& scenario : MakeScenarioBattery(options)) {
      for (std::uint64_t k : {2, 4, 8}) {
        SCOPED_TRACE(scenario.name + " seed=" + std::to_string(seed) +
                     " eps=1/" + std::to_string(k));
        CheckCostOblivious(scenario.trace, k);
        CheckDeamortized(scenario.trace, k);
        CheckCheckpointed(scenario.trace, k);
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 90);
}

}  // namespace
}  // namespace cosr
