#ifndef COSR_METRICS_COST_METER_H_
#define COSR_METRICS_COST_METER_H_

#include <cstdint>
#include <vector>

#include "cosr/cost/cost_battery.h"
#include "cosr/storage/space.h"

namespace cosr {

/// Prices every physical write (placement or move) under an entire battery
/// of cost functions simultaneously. Because the reallocators are cost
/// oblivious, one execution yields the exact cost the algorithm would have
/// incurred under *each* f — this meter is how (f, a, b)-competitiveness is
/// measured experimentally.
///
/// Accounting follows the paper: the competitive denominator is the sum of
/// allocation costs f(w) over all inserted objects; the numerator is the
/// total write cost (initial placements plus every reallocation).
///
/// Thread-compatible: one meter must only hear one thread at a time, each
/// event ordered after the last. Under the concurrent service facade,
/// attach one meter per shard (events fire on the worker holding the
/// shard's claim, and claims are ordered) and MergeFrom the K meters after
/// a drain — the aggregation-safe pattern; never share one meter across
/// shards.
class CostMeter : public SpaceListener {
 public:
  struct FunctionTotals {
    double allocation_cost = 0;   // sum of f(w) over placements
    double total_write_cost = 0;  // placements + moves
    double max_op_cost = 0;       // worst single-request write cost
  };

  /// The battery must outlive the meter.
  explicit CostMeter(const CostBattery* battery);

  /// Marks a request boundary for the per-op worst-case accounting.
  void BeginOp();

  /// Folds another meter's totals into this one: costs and counters add,
  /// per-op worst cases take the max (counting `other`'s still-open op as
  /// closed). Both meters must price the same CostBattery instance
  /// (CHECK-enforced), and `other` must be hearing no more events.
  void MergeFrom(const CostMeter& other);

  void OnPlace(ObjectId id, const Extent& extent) override;
  void OnMove(ObjectId id, const Extent& from, const Extent& to) override;
  void OnRemove(ObjectId id, const Extent& extent) override;

  const FunctionTotals& totals(std::size_t fn) const { return totals_[fn]; }
  std::size_t function_count() const { return totals_.size(); }

  /// total write cost / allocation cost (>= 1); the paper's b plus one.
  double CostRatio(std::size_t fn) const;
  /// Reallocation-only cost (moves) / allocation cost; the paper's b.
  double ReallocRatio(std::size_t fn) const;

  std::uint64_t places() const { return places_; }
  std::uint64_t moves() const { return moves_; }
  std::uint64_t removes() const { return removes_; }
  std::uint64_t bytes_placed() const { return bytes_placed_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  void CloseOp();

  const CostBattery* battery_;
  std::vector<FunctionTotals> totals_;
  std::vector<double> op_cost_;
  std::uint64_t places_ = 0;
  std::uint64_t moves_ = 0;
  std::uint64_t removes_ = 0;
  std::uint64_t bytes_placed_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace cosr

#endif  // COSR_METRICS_COST_METER_H_
