// Property sweep: every core variant, across epsilons, workloads, and
// seeds, must (a) survive the CHECK-enforced physical rules, (b) keep its
// layout invariants (2.2-2.4), (c) keep the reserved footprint within
// (1 + c*eps) of the live volume (Lemma 2.5 / 3.5), and (d) never lose or
// corrupt an object.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cosr/storage/address_space.h"
#include "cosr/common/random.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/core/size_class_layout.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

enum class Variant { kAmortized, kCheckpointed, kDeamortized };
enum class Workload { kChurnUniform, kChurnPow2, kChurnBimodal, kGrowShrink };

std::string VariantName(Variant v) {
  switch (v) {
    case Variant::kAmortized:
      return "amortized";
    case Variant::kCheckpointed:
      return "checkpointed";
    case Variant::kDeamortized:
      return "deamortized";
  }
  return "?";
}

std::string WorkloadName(Workload w) {
  switch (w) {
    case Workload::kChurnUniform:
      return "uniform";
    case Workload::kChurnPow2:
      return "pow2";
    case Workload::kChurnBimodal:
      return "bimodal";
    case Workload::kGrowShrink:
      return "growshrink";
  }
  return "?";
}

Trace MakeWorkload(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::kChurnUniform:
      return MakeChurnTrace({.operations = 2500,
                             .target_live_volume = 1 << 14,
                             .max_size = 300,
                             .seed = seed});
    case Workload::kChurnPow2:
      return MakeChurnTrace({.operations = 2500,
                             .target_live_volume = 1 << 14,
                             .max_size = 512,
                             .distribution = SizeDistribution::kPowerOfTwo,
                             .seed = seed});
    case Workload::kChurnBimodal:
      return MakeChurnTrace({.operations = 2500,
                             .target_live_volume = 1 << 14,
                             .min_size = 1,
                             .max_size = 1024,
                             .distribution = SizeDistribution::kBimodal,
                             .seed = seed});
    case Workload::kGrowShrink:
      return MakeGrowShrinkTrace({.cycles = 2,
                                  .peak_volume = 1 << 14,
                                  .shrink_fraction = 0.2,
                                  .max_size = 300,
                                  .seed = seed});
  }
  return Trace();
}

using Param = std::tuple<Variant, double, Workload, std::uint64_t>;

class CoreInvariantProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CoreInvariantProperty, HoldsThroughout) {
  const auto [variant, eps, workload, seed] = GetParam();
  std::unique_ptr<CheckpointManager> manager;
  if (variant != Variant::kAmortized) {
    manager = std::make_unique<CheckpointManager>();
  }
  AddressSpace space(manager.get());
  std::unique_ptr<SizeClassLayout> realloc;
  switch (variant) {
    case Variant::kAmortized:
      realloc = std::make_unique<CostObliviousReallocator>(
          &space, CostObliviousReallocator::Options{eps});
      break;
    case Variant::kCheckpointed:
      realloc = std::make_unique<CheckpointedReallocator>(
          &space, CheckpointedReallocator::Options{eps});
      break;
    case Variant::kDeamortized:
      realloc = std::make_unique<DeamortizedReallocator>(
          &space, DeamortizedReallocator::Options{eps, 4.0});
      break;
  }

  Trace trace = MakeWorkload(workload, seed);
  ASSERT_TRUE(trace.Validate().ok());
  CostBattery battery = MakeDefaultBattery();
  RunOptions options;
  options.check_invariants_every = 100;
  options.min_volume_for_ratio = 1 << 13;
  RunReport report = RunTrace(*realloc, space, trace, battery, options);

  // (b) final invariants after quiescing.
  realloc->Quiesce();
  ASSERT_TRUE(realloc->CheckInvariants().ok())
      << realloc->CheckInvariants().ToString();
  ASSERT_TRUE(space.SelfCheck());

  // (c) footprint bound: reserved <= (1 + c*eps) * volume with c covering
  // the constants hidden in Lemma 2.5 (plus the deamortized tail buffer
  // and in-flight flush working space through reserved_footprint()).
  const double c = variant == Variant::kDeamortized ? 16.0 : 8.0;
  EXPECT_LE(report.max_footprint_ratio, 1.0 + c * eps)
      << VariantName(variant) << " eps=" << eps;

  // (a)/(d): the run survived every CHECK and the volume adds up.
  EXPECT_EQ(realloc->volume(), space.live_volume());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoreInvariantProperty,
    ::testing::Combine(
        ::testing::Values(Variant::kAmortized, Variant::kCheckpointed,
                          Variant::kDeamortized),
        ::testing::Values(0.5, 0.25, 0.125),
        ::testing::Values(Workload::kChurnUniform, Workload::kChurnPow2,
                          Workload::kChurnBimodal, Workload::kGrowShrink),
        ::testing::Values(7u, 77u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      const Variant variant = std::get<0>(info.param);
      const double eps = std::get<1>(info.param);
      const Workload workload = std::get<2>(info.param);
      const std::uint64_t seed = std::get<3>(info.param);
      return VariantName(variant) + "_eps" +
             std::to_string(static_cast<int>(eps * 1000)) + "_" +
             WorkloadName(workload) + "_seed" + std::to_string(seed);
    });

/// Payload tombstones: deletes of payload objects leave tombstones that
/// the invariant checker accounts exactly (each survivor's stored position
/// matches its index, and the hole count matches), the flush loops skip,
/// and the region's next flush drops. eps = 1 gives every buffer room for
/// a region's worth of dummy records, so at least half of several
/// regions' payload objects can be deleted without a flush.
class PayloadTombstoneTest : public ::testing::TestWithParam<Variant> {};

TEST_P(PayloadTombstoneTest, HalfEmptiedRegionsStayConsistentThroughFlush) {
  const Variant variant = GetParam();
  std::unique_ptr<CheckpointManager> manager;
  if (variant != Variant::kAmortized) {
    manager = std::make_unique<CheckpointManager>();
  }
  AddressSpace space(manager.get());
  std::unique_ptr<SizeClassLayout> realloc;
  switch (variant) {
    case Variant::kAmortized:
      realloc = std::make_unique<CostObliviousReallocator>(
          &space, CostObliviousReallocator::Options{1.0});
      break;
    case Variant::kCheckpointed:
      realloc = std::make_unique<CheckpointedReallocator>(
          &space, CheckpointedReallocator::Options{1.0});
      break;
    case Variant::kDeamortized:
      realloc = std::make_unique<DeamortizedReallocator>(
          &space, DeamortizedReallocator::Options{1.0, 4.0});
      break;
  }
  auto check = [&] {
    const Status status = realloc->CheckInvariants();
    ASSERT_TRUE(status.ok()) << status.ToString();
  };

  // Objects of classes 4-7 (sizes 8-127), until a flush has filed most of
  // them as payload objects.
  Rng rng(31);
  ObjectId next = 1;
  while (realloc->volume() < (1u << 14) || realloc->flush_count() < 3) {
    ASSERT_TRUE(realloc->Insert(next++, rng.UniformRange(8, 127)).ok());
    check();
  }
  realloc->Quiesce();
  check();

  // Delete the first half (rounded up) of every region's payload objects,
  // spread over the region by taking every other one first.
  const std::uint64_t flushes = realloc->flush_count();
  std::vector<int> emptied;
  for (int i = 4; i <= 7; ++i) {
    const std::vector<ObjectId> payload = realloc->region(i).payload_objects;
    if (payload.size() < 8) continue;
    std::vector<ObjectId> victims;
    for (std::size_t k = 0; k < payload.size(); k += 2) {
      victims.push_back(payload[k]);
    }
    for (std::size_t k = 1; victims.size() < (payload.size() + 1) / 2;
         k += 2) {
      victims.push_back(payload[k]);
    }
    for (const ObjectId id : victims) {
      ASSERT_TRUE(realloc->Delete(id).ok());
      check();
    }
    emptied.push_back(i);
  }
  ASSERT_EQ(realloc->flush_count(), flushes) << "deletes flushed early";
  ASSERT_GE(emptied.size(), 3u);
  std::size_t holes_before = 0;
  for (const int i : emptied) {
    const Region& r = realloc->region(i);
    EXPECT_GE(r.payload_holes, r.payload_count()) << "class " << i;
    EXPECT_EQ(r.payload_objects.size(), r.payload_holes + r.payload_count());
    holes_before += r.payload_holes;
  }

  // Inserts until the next flush has run to completion: the flushed
  // regions drop their tombstones, and every live object stays in place.
  while (realloc->flush_count() == flushes) {
    ASSERT_TRUE(realloc->Insert(next++, rng.UniformRange(8, 127)).ok());
    check();
  }
  realloc->Quiesce();
  check();
  // Every flush rebuilds a suffix of regions that ends at the largest
  // class, so it reached the largest emptied region and dropped its
  // tombstones.
  ASSERT_EQ(emptied.back(), realloc->max_size_class());
  std::size_t holes_after = 0;
  for (const int i : emptied) holes_after += realloc->region(i).payload_holes;
  EXPECT_LT(holes_after, holes_before);
  EXPECT_EQ(realloc->region(emptied.back()).payload_holes, 0u);
  EXPECT_EQ(realloc->volume(), space.live_volume());
  EXPECT_TRUE(space.SelfCheck());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, PayloadTombstoneTest,
    ::testing::Values(Variant::kAmortized, Variant::kCheckpointed,
                      Variant::kDeamortized),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return VariantName(info.param);
    });

}  // namespace
}  // namespace cosr
