// Additional coverage for the core variants: the no-spill ablation keeps
// all invariants, every variant emits the Figure-3 flush stages once per
// flush, the deamortized variant's per-op checkpoint count is bounded, and
// the defragmenter validates its input.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/storage/address_space.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/core/defragmenter.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/factory.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/viz/flush_tracer.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

TEST(NoSpillAblationTest, InvariantsAndFootprintStillHold) {
  AddressSpace space;
  CostObliviousReallocator::Options options;
  options.epsilon = 0.25;
  options.spill_to_higher_buffers = false;
  CostObliviousReallocator realloc(&space, options);
  Trace trace = MakeChurnTrace({.operations = 3000,
                                .target_live_volume = 1 << 14,
                                .max_size = 512,
                                .seed = 31});
  CostBattery battery = MakeDefaultBattery();
  RunOptions run_options;
  run_options.check_invariants_every = 100;
  run_options.min_volume_for_ratio = 1 << 13;
  RunReport report = RunTrace(realloc, space, trace, battery, run_options);
  // Correctness is unaffected by the ablation; only the cost changes.
  EXPECT_LE(report.max_footprint_ratio, 1.0 + 8 * 0.25);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(NoSpillAblationTest, CostsMoreThanThePaperRule) {
  Trace trace = MakeChurnTrace({.operations = 4000,
                                .target_live_volume = 1 << 15,
                                .max_size = 1024,
                                .seed = 32});
  CostBattery battery = MakeDefaultBattery();
  double ratios[2];
  for (int variant = 0; variant < 2; ++variant) {
    AddressSpace space;
    CostObliviousReallocator::Options options;
    options.epsilon = 0.25;
    options.spill_to_higher_buffers = (variant == 0);
    CostObliviousReallocator realloc(&space, options);
    RunReport report = RunTrace(realloc, space, trace, battery);
    ratios[variant] = report.function("linear")->realloc_ratio;
  }
  EXPECT_GT(ratios[1], 1.5 * ratios[0]);
}

/// Records flush events, and how many space events fall between them.
class StageRecorder : public FlushListener, public SpaceListener {
 public:
  void OnFlushEvent(const FlushEvent& event) override {
    events.push_back(event);
    if (event.stage != FlushEvent::Stage::kBegin && moves_in_stage == 0) {
      ++empty_stages;
    }
    moves_in_stage = 0;
  }
  void OnMoves(const MoveRecord*, std::size_t count) override {
    moves_in_stage += count;
  }
  void OnMove(ObjectId, const Extent&, const Extent&) override {
    ++moves_in_stage;
  }

  std::vector<FlushEvent> events;
  std::uint64_t moves_in_stage = 0;
  std::uint64_t empty_stages = 0;
};

/// Replays `trace` on a fresh `variant` at eps = 1/4 and checks that every
/// flush emits Figure 3's states (i)-(v) once each, in order, with one
/// boundary. Returns the number of stages that moved nothing.
std::uint64_t ExpectFigureThreePerFlush(const std::string& variant,
                                        const Trace& trace) {
  const FlushEvent::Stage kOrder[] = {
      FlushEvent::Stage::kBegin, FlushEvent::Stage::kBuffersEvacuated,
      FlushEvent::Stage::kCompacted, FlushEvent::Stage::kUnpacked,
      FlushEvent::Stage::kEnd};
  CheckpointManager manager;
  AddressSpace space(
      AlgorithmNeedsCheckpointManager(variant) ? &manager : nullptr);
  ReallocatorSpec spec;
  spec.algorithm = variant;
  std::unique_ptr<Reallocator> owned;
  EXPECT_TRUE(MakeReallocator(spec, &space, &owned).ok());
  auto* realloc = dynamic_cast<SizeClassLayout*>(owned.get());
  if (realloc == nullptr) {
    ADD_FAILURE() << variant << " is not a size-class layout";
    return 0;
  }
  StageRecorder recorder;
  realloc->set_flush_listener(&recorder);
  space.AddListener(&recorder);
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      EXPECT_TRUE(realloc->Insert(r.id, r.size).ok());
    } else {
      EXPECT_TRUE(realloc->Delete(r.id).ok());
    }
  }
  realloc->Quiesce();

  EXPECT_GT(realloc->flush_count(), 0u);
  EXPECT_EQ(recorder.events.size(), 5 * realloc->flush_count());
  for (std::size_t i = 0; i < recorder.events.size(); ++i) {
    const FlushEvent& event = recorder.events[i];
    EXPECT_EQ(event.stage, kOrder[i % 5]) << "event " << i;
    EXPECT_EQ(event.boundary_class,
              recorder.events[i - i % 5].boundary_class)
        << "event " << i;
  }
  return recorder.empty_stages;
}

TEST(FlushStagesTest, EmitsFigureThreeEvents) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  CheckpointedReallocator realloc(&space,
                                  CheckpointedReallocator::Options{0.5});
  FlushTracer tracer(&realloc, &space, 64);
  realloc.set_flush_listener(&tracer);
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  ObjectId id = 2;
  while (realloc.flush_count() == 0) {
    ASSERT_TRUE(realloc.Insert(id++, 10).ok());
  }
  ASSERT_EQ(tracer.frames().size(), 5u);
  EXPECT_NE(tracer.frames()[1].find("(ii)"), std::string::npos);
  EXPECT_NE(tracer.frames()[3].find("(iv)"), std::string::npos);

  // Every variant, every flush of a seeded churn.
  const Trace churn = MakeChurnTrace({.operations = 4000,
                                      .target_live_volume = 1 << 14,
                                      .max_size = 512,
                                      .seed = 35});
  // A delete whose dummy record fits no buffer flushes with nothing
  // buffered: stages A and D are empty but still reported.
  Trace empty_stages;
  empty_stages.AddInsert(1, 100);
  empty_stages.AddInsert(2, 64);
  empty_stages.AddDelete(1);
  for (const std::string variant :
       {"cost-oblivious", "checkpointed", "deamortized"}) {
    SCOPED_TRACE(variant);
    ExpectFigureThreePerFlush(variant, churn);
    EXPECT_GT(ExpectFigureThreePerFlush(variant, empty_stages), 0u);
  }
}

TEST(DeamortizedCheckpointTest, PerOpCheckpointsBounded) {
  // Worst-case O(1/eps) checkpoints per operation (Section 3.3 builds on
  // the checkpointing flush; each op executes a bounded work share and
  // can cross only boundedly many phase boundaries).
  const double eps = 0.25;
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space,
                                 DeamortizedReallocator::Options{eps, 4.0});
  Trace trace = MakeChurnTrace({.operations = 5000,
                                .target_live_volume = 1 << 15,
                                .max_size = 512,
                                .seed = 33});
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      ASSERT_TRUE(realloc.Insert(r.id, r.size).ok());
    } else {
      ASSERT_TRUE(realloc.Delete(r.id).ok());
    }
  }
  EXPECT_LE(realloc.max_checkpoints_per_op(),
            static_cast<std::uint64_t>(8.0 / eps) + 8);
  EXPECT_GT(realloc.max_checkpoints_per_op(), 0u);
}

TEST(DeamortizedTinyEpsilonTest, RetriggerChainsTerminate) {
  // With eps = 1/64 the tail is tiny and flushes retrigger aggressively;
  // every operation must still terminate with consistent state.
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(
      &space, DeamortizedReallocator::Options{1.0 / 64.0, 4.0});
  Trace trace = MakeChurnTrace({.operations = 1500,
                                .target_live_volume = 1 << 12,
                                .max_size = 128,
                                .seed = 34});
  CostBattery battery = MakeDefaultBattery();
  RunReport report = RunTrace(realloc, space, trace, battery);
  EXPECT_GT(report.flushes, 10u);
  realloc.Quiesce();
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(DefragmenterTest, RejectsDuplicateIds) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  auto less = [](ObjectId a, ObjectId b) { return a < b; };
  EXPECT_EQ(Defragmenter::Sort(&space, {1, 1}, less, {.epsilon = 0.25},
                               nullptr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointedZeroEpsilonEdge, TinyStructuresFlushConstantly) {
  // eps small enough that every buffer capacity floors to zero: every
  // insert/delete triggers a flush, and the structure still works.
  CheckpointManager manager;
  AddressSpace space(&manager);
  CheckpointedReallocator realloc(&space,
                                  CheckpointedReallocator::Options{0.01});
  for (ObjectId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(realloc.Insert(id, 8 + id % 32).ok());
  }
  for (ObjectId id = 1; id <= 40; id += 2) {
    ASSERT_TRUE(realloc.Delete(id).ok());
  }
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
  EXPECT_GT(realloc.flush_count(), 20u);
}

TEST(AmortizedMixedOpsTest, InsertExistingDuplicateRejected) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space);
  ASSERT_TRUE(realloc.Insert(1, 10).ok());
  // Already tracked by the structure: adopting it again must fail.
  EXPECT_EQ(realloc.InsertExisting(1).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace cosr
