#ifndef COSR_CORE_CHECKPOINTED_REALLOCATOR_H_
#define COSR_CORE_CHECKPOINTED_REALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/core/size_class_layout.h"

namespace cosr {

/// The Section 3.2 variant: footprint minimization under the database
/// durability model. The address space must have a CheckpointManager
/// attached, which enforces that no write ever lands on a location freed
/// since the last checkpoint and that moves are nonoverlapping (old copies
/// survive until the translation map is persisted).
///
/// Differences from the amortized variant:
///  * a flush-triggering insert is placed *before* the flush, at the end of
///    the last buffer segment (filling and exceeding its capacity);
///  * the flush works in an overflow area at max(L, L') + B + ∆ and proceeds
///    in phases — pack payloads rightward ending at that offset, then unpack
///    leftward to final positions — each phase moving at most B + ∆ (and,
///    when stopped early, more than B) worth of target addresses, with a
///    checkpoint between phases (Lemmas 3.1-3.3);
///  * the in-flush footprint is bounded by (1 + O(eps)) V + ∆ and the number
///    of checkpoints per flush by O(1/eps).
///
/// The flush is built once as a plan (stages A-D) and executed by a
/// budgeted executor. This variant runs the plan to completion inside the
/// triggering request; DeamortizedReallocator (Section 3.3) runs the same
/// plan a bounded share per update.
class CheckpointedReallocator : public SizeClassLayout {
 public:
  struct Options {
    double epsilon = 0.25;  // the paper's eps', in (0, 1]
  };

  /// `space` must have a CheckpointManager attached and outlive the
  /// reallocator.
  CheckpointedReallocator(Space* space, Options options);
  explicit CheckpointedReallocator(Space* space)
      : CheckpointedReallocator(space, Options()) {}
  CheckpointedReallocator(const CheckpointedReallocator&) = delete;
  CheckpointedReallocator& operator=(const CheckpointedReallocator&) = delete;

  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;
  const char* name() const override { return "checkpointed"; }

  /// Checkpoints taken by the last completed flush (for the deamortized
  /// variant, through the end of its log drain).
  std::uint64_t checkpoints_in_last_flush() const {
    return checkpoints_in_last_flush_;
  }
  std::uint64_t max_checkpoints_per_flush() const {
    return max_checkpoints_per_flush_;
  }

 protected:
  /// Where a flush plan's working space lies.
  struct FlushArea {
    std::uint64_t overflow_end = 0;  // end of the evacuated buffer objects
    std::uint64_t work_end = 0;      // end of the working space (+ B + ∆)
  };

  /// Builds the flush plan of regions >= boundary and emits kBegin.
  /// `structure_end` is the paper's L. The deamortized tail joins through
  /// the extra terms: `extra_buffer` adds to B, `extra_end` to the desired
  /// end L', and `extra_entries` are evacuated after the region buffers
  /// (all zero/empty for Section 3.2).
  FlushArea BuildFlushPlan(int boundary, std::uint64_t structure_end,
                           std::uint64_t extra_buffer,
                           std::uint64_t extra_end,
                           const std::vector<BufferEntry>& extra_entries);

  /// Executes the plan until `budget` volume of plan moves is done or the
  /// plan is installed, whichever comes first; returns the volume done.
  /// The checkpoint rule: one at each transition into a non-empty stage,
  /// one between B + ∆ phases of the pack and unpack stages, and one
  /// before the install. Emits Figure 3's events (ii)-(v), each once.
  std::uint64_t RunFlushPlan(std::uint64_t budget);

  void CheckpointNow();
  /// Checkpoints taken through CheckpointNow so far.
  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  /// Records the checkpoints taken since the last BuildFlushPlan as one
  /// completed flush.
  void CloseFlush();

 private:
  /// Flushes regions >= boundary by running the plan to completion.
  /// `structure_end` is the reserved end before a triggering insert was
  /// placed (the paper's L).
  void Flush(int boundary, std::uint64_t structure_end);

  /// Stages A-D of the plan, then the installed state.
  enum Stage { kEvacuate, kPack, kUnpack, kPlace, kInstalled };

  /// Applies the staged batch, checkpoints, and advances to `next`,
  /// emitting the events of every stage passed (empty stages included).
  void EndStage(Stage next);

  std::vector<MovePlan> plan_;  // stages A-D in execution order
  std::size_t stage_end_[kInstalled] = {};  // plan index where each ends
  std::size_t plan_cursor_ = 0;
  Stage stage_ = kInstalled;
  int boundary_ = 0;
  std::uint64_t phase_limit_ = 0;  // B + ∆
  // Target-address envelope of the open pack/unpack phase.
  std::uint64_t phase_low_ = 0;
  std::uint64_t phase_high_ = 0;
  bool phase_open_ = false;

  std::uint64_t checkpoints_taken_ = 0;
  std::uint64_t flush_first_checkpoint_ = 0;
  std::uint64_t checkpoints_in_last_flush_ = 0;
  std::uint64_t max_checkpoints_per_flush_ = 0;
};

}  // namespace cosr

#endif  // COSR_CORE_CHECKPOINTED_REALLOCATOR_H_
