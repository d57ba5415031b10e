// Golden flush streams of the three size-class variants. Each cell replays
// one trace and hashes every physical event the space reports (batch
// markers included, runs of back-to-back checkpoints collapsed to one),
// then compares the digest and the variant's own counters with recorded
// constants. A refactor of the flush code that changes any move, its
// batching or the placement of a checkpoint between space events changes
// a digest.

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/core/deamortized_reallocator.h"
#include "cosr/realloc/factory.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/scenario.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"
#include "reference/event_recorder.h"

namespace cosr {
namespace {

struct Golden {
  const char* variant;
  int k;  // epsilon = 1/k
  const char* trace;
  std::uint64_t digest;
  std::uint64_t move_count;
  std::uint64_t moved_volume;
  std::uint64_t flush_count;
  std::uint64_t max_temp_footprint;
  // Deamortized only (0 for the other variants).
  std::uint64_t max_op_moved_volume;
  std::uint64_t max_checkpoints_per_op;
  std::uint64_t checkpoints;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"cost-oblivious", 2, "churn", 0x462e1d69479906d1ull, 8769, 4996939, 98, 60460, 0, 0, 0},
    {"cost-oblivious", 2, "database-block-replay", 0xbd86c56073ecdc27ull, 2652, 1609936, 68, 46822, 0, 0, 0},
    {"cost-oblivious", 2, "adv-cascade", 0xb1b548e29121c565ull, 0, 0, 0, 382, 0, 0, 0},
    {"cost-oblivious", 4, "churn", 0x72dceaf433f93822ull, 16386, 9503486, 196, 46508, 0, 0, 0},
    {"cost-oblivious", 4, "database-block-replay", 0xbac29c1d9c9e76c5ull, 4898, 3048833, 139, 35844, 0, 0, 0},
    {"cost-oblivious", 4, "adv-cascade", 0xdc44f34ae62e659cull, 0, 0, 0, 318, 0, 0, 0},
    {"checkpointed", 2, "churn", 0x71296f9357ac3cd5ull, 9802, 5628534, 98, 79208, 0, 0, 0},
    {"checkpointed", 2, "database-block-replay", 0x8939524314bfa5baull, 3414, 2103208, 68, 61555, 0, 0, 0},
    {"checkpointed", 2, "adv-cascade", 0xb1b548e29121c565ull, 0, 0, 0, 382, 0, 0, 0},
    {"checkpointed", 4, "churn", 0xc9f731fe3226aad7ull, 19370, 11323084, 196, 56174, 0, 0, 0},
    {"checkpointed", 4, "database-block-replay", 0x29d9b6154557d691ull, 6924, 4331604, 139, 43514, 0, 0, 0},
    {"checkpointed", 4, "adv-cascade", 0xdc44f34ae62e659cull, 0, 0, 0, 318, 0, 0, 0},
    {"deamortized", 2, "churn", 0x957caa52fa59d10bull, 5583, 2851859, 45, 144775, 8774, 5, 227},
    {"deamortized", 2, "database-block-replay", 0x02be1c9742a1c16aull, 1827, 996065, 27, 116619, 8997, 5, 148},
    {"deamortized", 2, "adv-cascade", 0xb1b548e29121c565ull, 0, 0, 0, 382, 0, 0, 0},
    {"deamortized", 4, "churn", 0x75273610ee24c9c8ull, 11025, 5781585, 92, 90113, 16737, 7, 642},
    {"deamortized", 4, "database-block-replay", 0xda35a6a8b4b007cfull, 3834, 2171893, 63, 73833, 16610, 7, 459},
    {"deamortized", 4, "adv-cascade", 0xdc44f34ae62e659cull, 0, 0, 0, 318, 0, 0, 0},
};
// clang-format on

Trace GoldenTrace(const std::string& name) {
  if (name == "churn") {
    return MakeChurnTrace({.operations = 3000,
                           .target_live_volume = 1u << 15,
                           .min_size = 1,
                           .max_size = 1024,
                           .seed = 18});
  }
  for (Scenario& scenario :
       MakeScenarioBattery(ScenarioBatteryOptions::Smoke())) {
    if (scenario.name == name) return std::move(scenario.trace);
  }
  ADD_FAILURE() << "unknown trace " << name;
  return Trace();
}

void Mix(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

/// FNV-1a-64 over the event stream, with each run of consecutive
/// checkpoints counted once.
std::uint64_t StreamDigest(const std::vector<Event>& events) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  char previous = '?';
  for (const Event& e : events) {
    if (e.kind == 'C' && previous == 'C') continue;
    previous = e.kind;
    Mix(hash, static_cast<std::uint64_t>(e.kind));
    Mix(hash, e.id);
    Mix(hash, e.a.offset);
    Mix(hash, e.a.length);
    Mix(hash, e.b.offset);
    Mix(hash, e.b.length);
  }
  return hash;
}

bool HasBackToBackCheckpoints(const std::vector<Event>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].kind == 'C' && events[i - 1].kind == 'C') return true;
  }
  return false;
}

void Replay(Reallocator& realloc, const Trace& trace) {
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      ASSERT_TRUE(realloc.Insert(r.id, r.size).ok());
    } else {
      ASSERT_TRUE(realloc.Delete(r.id).ok());
    }
  }
  realloc.Quiesce();
}

TEST(FlushStreamTest, MatchesGoldenStreams) {
  ASSERT_EQ(std::size(kGolden), 18u);
  for (const Golden& golden : kGolden) {
    const std::string variant = golden.variant;
    SCOPED_TRACE(variant + " eps=1/" + std::to_string(golden.k) + " " +
                 golden.trace);
    const Trace trace = GoldenTrace(golden.trace);
    CheckpointManager manager;
    AddressSpace space(
        AlgorithmNeedsCheckpointManager(variant) ? &manager : nullptr);
    EventRecorder recorder;
    space.AddListener(&recorder);
    ReallocatorSpec spec;
    spec.algorithm = variant;
    spec.epsilon = 1.0 / golden.k;
    std::unique_ptr<Reallocator> owned;
    ASSERT_TRUE(MakeReallocator(spec, &space, &owned).ok());
    auto* realloc = dynamic_cast<SizeClassLayout*>(owned.get());
    auto* deamortized = dynamic_cast<DeamortizedReallocator*>(owned.get());
    ASSERT_NE(realloc, nullptr);

    Replay(*realloc, trace);
    ASSERT_EQ(realloc->CheckInvariants().ToString(), "Ok");

    EXPECT_EQ(StreamDigest(recorder.events), golden.digest);
    EXPECT_EQ(realloc->move_count(), golden.move_count);
    EXPECT_EQ(realloc->moved_volume(), golden.moved_volume);
    EXPECT_EQ(realloc->flush_count(), golden.flush_count);
    EXPECT_EQ(realloc->max_temp_footprint(), golden.max_temp_footprint);
    if (deamortized != nullptr) {
      EXPECT_EQ(deamortized->max_op_moved_volume(),
                golden.max_op_moved_volume);
      EXPECT_EQ(deamortized->max_checkpoints_per_op(),
                golden.max_checkpoints_per_op);
      EXPECT_EQ(manager.checkpoint_count(), golden.checkpoints);
    }
    // A checkpoint that directly follows another persists nothing new; the
    // run-to-completion flush never emits one.
    if (variant == "checkpointed") {
      EXPECT_FALSE(HasBackToBackCheckpoints(recorder.events));
    }
  }
}

}  // namespace
}  // namespace cosr
