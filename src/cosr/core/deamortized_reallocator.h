#ifndef COSR_CORE_DEAMORTIZED_REALLOCATOR_H_
#define COSR_CORE_DEAMORTIZED_REALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cosr/core/checkpointed_reallocator.h"

namespace cosr {

/// The Section 3.3 variant: the (partially) deamortized reallocator.
/// Worst-case reallocated volume per size-w update is (work_factor/eps)*w
/// plus at most one ∆-sized overrun, which yields the paper's worst-case
/// cost bound O((1/eps) * w * f(1) + f(∆)) for subadditive f, while the
/// amortized cost and footprint bounds are unchanged.
///
/// Two additions over the checkpointed structure:
///  * a *tail buffer* of capacity floor(eps * V_f) after all regions, where
///    V_f is the volume at the start of the previous flush. Objects go to
///    the tail only when every earlier buffer is full; a flush is triggered
///    only when the tail fills.
///  * a *log* after the flush's working space. Updates arriving mid-flush
///    append to the log; each size-w update also executes the next
///    (work_factor/eps)*w volume of the flush plan. When the plan is done,
///    logged updates are replayed in order (the re-insert/re-delete phase);
///    Lemma 3.4 shows the log drains before the next tail fill.
///
/// Requires a CheckpointManager: the flush plan, its executor and its
/// checkpoint rule are CheckpointedReallocator's (Section 3.2); this class
/// adds only the tail, the log, pending deletes, log replay, retrigger and
/// the per-update metering of the plan.
class DeamortizedReallocator : public CheckpointedReallocator {
 public:
  struct Options {
    double epsilon = 0.25;     // the paper's eps'
    double work_factor = 4.0;  // flush work per update: (work_factor/eps)*w
  };

  DeamortizedReallocator(Space* space, Options options);
  explicit DeamortizedReallocator(Space* space)
      : DeamortizedReallocator(space, Options()) {}
  DeamortizedReallocator(const DeamortizedReallocator&) = delete;
  DeamortizedReallocator& operator=(const DeamortizedReallocator&) = delete;

  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;
  const char* name() const override { return "deamortized"; }

  /// Runs the in-progress flush (and log drain) to completion.
  void Quiesce() override;

  /// Deletes issued while a flush is draining are logged, not applied: the
  /// object stays placed until the log replays.
  bool DeletesDetachImmediately() const override { return !active_; }

  std::uint64_t reserved_footprint() const override;

  bool flush_in_progress() const { return active_; }
  std::uint64_t tail_capacity() const { return tail_capacity_; }
  std::uint64_t tail_used() const { return tail_used_; }
  std::uint64_t log_size() const { return log_.size() - log_head_; }

  /// Largest volume physically moved by any single update (the quantity
  /// bounded by (work_factor/eps)*w + ∆ in Lemma 3.6).
  std::uint64_t max_op_moved_volume() const { return max_op_moved_volume_; }
  std::uint64_t max_checkpoints_per_op() const {
    return max_checkpoints_per_op_;
  }

  /// Full invariant checks apply only when no flush is in progress; while
  /// active, only global space consistency is verified.
  Status CheckInvariants() const override;

 protected:
  std::vector<BufferEntry>& BufferEntries(int region) override {
    return region == kTailRegion ? tail_entries_
                                 : SizeClassLayout::BufferEntries(region);
  }

 private:
  static constexpr int kTailRegion = -1;
  static constexpr int kLogRegion = -2;

  struct LogEntry {
    bool is_delete = false;
    ObjectId id = kInvalidObjectId;
    std::uint64_t size = 0;
    int size_class = 0;
  };

  std::uint64_t TailStart() const { return regions_.back().region_end(); }

  /// Places an already-positioned object at the end of the tail buffer
  /// (moving it there) and requests a flush when the tail is full.
  void TailInsert(ObjectId id, std::uint64_t size, int cls,
                  bool already_placed);
  /// Appends an entry (object or dummy record) to the tail and requests a
  /// flush when the tail is full.
  void TailAppend(const BufferEntry& entry);

  /// Applies delete bookkeeping for an object in a region buffer, the tail,
  /// or a payload segment, and returns its size. When no buffer has room
  /// for the dummy record, requests a flush without consuming space.
  std::uint64_t ApplyDelete(ObjectId id);

  /// Begins a flush now, or right after the one in progress drains.
  void RequestFlush(int trigger_class);

  /// Builds the flush plan (the tail joins as extra buffer) and activates
  /// incremental mode.
  void BeginFlush(int trigger_class);

  /// Executes up to `budget` volume of plan moves / log replays.
  void DoWork(std::uint64_t budget);
  void FinishFlush();

  /// Wraps a public update: runs the op's flush work share and maintains
  /// the per-op worst-case statistics.
  void AfterUpdate(std::uint64_t op_size);

  // Tail buffer state.
  std::uint64_t tail_capacity_ = 0;
  std::uint64_t tail_used_ = 0;
  std::vector<BufferEntry> tail_entries_;
  int tail_min_class_ = std::numeric_limits<int>::max();

  // Flush state: a plan is executing or the log is draining.
  bool active_ = false;
  bool retrigger_ = false;

  // Log state: a FIFO over one vector that keeps its capacity across
  // flushes. log_head_ is the next entry to replay; the vector is cleared
  // when the log drains.
  std::vector<LogEntry> log_;
  std::size_t log_head_ = 0;
  std::uint64_t log_cursor_ = 0;

  // Work metering.
  double work_budget_per_unit_ = 0.0;  // work_factor / epsilon

  // Statistics.
  std::uint64_t max_op_moved_volume_ = 0;
  std::uint64_t max_checkpoints_per_op_ = 0;
};

}  // namespace cosr

#endif  // COSR_CORE_DEAMORTIZED_REALLOCATOR_H_
