#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement primitives of the benchmark: order statistics, nested-span
// self-time accounting, the per-request written-bytes listener, and the
// recovered-vs-live layout comparison. Everything here is pure bookkeeping
// over values the caller supplies, so tests/measure_test.cc can drive it
// with synthetic inputs.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cosr/storage/extent.h"
#include "cosr/storage/space.h"

namespace perfbench {

/// Nearest-rank percentile: the ceil(q * n)-th smallest value (clamped to
/// [1, n]); q = 0.5 is the lower median, q = 1 the maximum. Reorders
/// `values` (nth_element). Empty input answers 0.
template <typename T>
T Percentile(std::vector<T>& values, double q) {
  if (values.empty()) return T{};
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// Median of doubles (mean of the two middle values for even counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The layers a traced run attributes time to. Each span is a call from
/// one layer into the next, timed at the public interface between them.
enum class Layer : int {
  kFacade,           // a facade Insert/Delete
  kSpacePlace,       // Space::TryPlace
  kSpaceRemove,      // Space::TryRemove
  kSpaceApplyMoves,  // Space::ApplyMoves / Move
  kSpaceCheckpoint,  // Space::Checkpoint
  kSpaceLookup,      // Space::TryExtentOf issued by the benchmark
  kSpaceRead,        // every other Space query issued by the stack
  kListener,         // a SpaceListener callback (the move log)
  kLogCheckpoint,    // CheckpointDurabilityLog::LogCheckpoint (sync, compaction)
  kSubmit,           // ConcurrentShardedReallocator::SubmitMany
  kFlush,            // ConcurrentShardedReallocator::Flush
  kCount,
};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  // span durations
  std::uint64_t self_ns = 0;   // durations minus nested child spans
};

/// Aggregates nested spans into per-layer totals without storing them: a
/// span's self time is its duration minus the durations of the spans that
/// began and ended inside it. Single-threaded; spans must nest (End closes
/// the innermost open span).
class SpanTracer {
 public:
  void Begin(Layer layer, std::uint64_t now_ns) {
    stack_.push_back(Frame{layer, now_ns, 0});
  }

  void End(std::uint64_t now_ns) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t duration =
        now_ns >= frame.start_ns ? now_ns - frame.start_ns : 0;
    LayerTotals& totals = totals_[static_cast<int>(frame.layer)];
    ++totals.calls;
    totals.total_ns += duration;
    totals.self_ns += duration >= frame.child_ns ? duration - frame.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  std::size_t open_spans() const { return stack_.size(); }
  void Reset() { totals_ = {}; }

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<int>(Layer::kCount)> totals_{};
};

/// Counts the bytes each request writes: every placed extent plus every
/// moved extent reported to the space's listeners. The caller reads and
/// clears the counters after each request (TakeRequest), which yields the
/// per-request distribution; running totals survive the clears.
class WrittenBytesListener final : public cosr::SpaceListener {
 public:
  void OnPlace(cosr::ObjectId, const cosr::Extent& extent) override {
    placed_ += extent.length;
  }
  void OnMove(cosr::ObjectId, const cosr::Extent&,
              const cosr::Extent& to) override {
    moved_ += to.length;
    ++moves_;
  }
  void OnMoves(const cosr::MoveRecord* records, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) moved_ += records[i].to.length;
    moves_ += count;
  }

  /// Bytes placed + moved since the previous call; folds them into the
  /// running totals.
  std::uint64_t TakeRequest() {
    const std::uint64_t written = placed_ + moved_;
    total_placed_ += placed_;
    total_moved_ += moved_;
    placed_ = 0;
    moved_ = 0;
    return written;
  }

  /// Running totals, pending (not yet taken) bytes included.
  std::uint64_t placed_bytes() const { return total_placed_ + placed_; }
  std::uint64_t moved_bytes() const { return total_moved_ + moved_; }
  std::uint64_t moves() const { return moves_; }

 private:
  std::uint64_t placed_ = 0;
  std::uint64_t moved_ = 0;
  std::uint64_t total_placed_ = 0;
  std::uint64_t total_moved_ = 0;
  std::uint64_t moves_ = 0;
};

using Layout = std::vector<std::pair<cosr::ObjectId, cosr::Extent>>;

/// Extent-for-extent equality of two offset-ordered layouts (Space
/// snapshots). On mismatch returns false and describes the first
/// difference in *why.
inline bool LayoutsMatch(const Layout& expected, const Layout& actual,
                         std::string* why) {
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [eid, e] = expected[i];
    const auto& [aid, a] = actual[i];
    if (eid != aid || e.offset != a.offset || e.length != a.length) {
      *why = "entry " + std::to_string(i) + ": expected id " +
             std::to_string(eid) + " at [" + std::to_string(e.offset) + "+" +
             std::to_string(e.length) + "), got id " + std::to_string(aid) +
             " at [" + std::to_string(a.offset) + "+" +
             std::to_string(a.length) + ")";
      return false;
    }
  }
  if (expected.size() != actual.size()) {
    *why = "expected " + std::to_string(expected.size()) + " extents, got " +
           std::to_string(actual.size());
    return false;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
