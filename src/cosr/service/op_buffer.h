#ifndef COSR_SERVICE_OP_BUFFER_H_
#define COSR_SERVICE_OP_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/workload/request.h"

namespace cosr {

/// A producer-side submission buffer for ConcurrentShardedReallocator:
/// ops accumulate locally (no synchronization, no queue hop) and go out
/// as one SubmitMany batch when the buffer fills, on Flush(), or at
/// destruction. One buffer per producer thread — typically a
/// thread_local or a stack object in the producer's loop — amortizes the
/// per-op submission cost to ~1/capacity of a queue hop.
///
/// Thread-compatible, deliberately NOT thread-safe: a buffer belongs to
/// exactly one producer thread. The facade it feeds is fully thread-safe,
/// so K producers each own a private OpBuffer over the same facade.
///
/// Ordering: ops flush in Add order; per-shard order within a flush and
/// across this buffer's flushes follows the facade's SubmitMany contract.
/// Buffered ops are invisible to the facade (and to its Flush/Quiesce
/// barriers) until flushed — call Flush() here first when a barrier must
/// cover them.
///
/// Error reporting is fire-and-forget like Submit: each op's own outcome
/// is the shard's status, counted in its failed_ops. Add/Flush return the
/// first drop status of the batch they flushed (Ok when nothing flushed or
/// everything was enqueued), and stats().ops_not_enqueued counts every op
/// a drop kept from reaching a queue.
class OpBuffer {
 public:
  /// Buffer sizes outside [kMinCapacity, kMaxCapacity] are clamped: big
  /// enough to amortize the hop, small enough that a producer never sits
  /// on an unbounded backlog invisible to the facade's barriers.
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxCapacity = 64;
  static constexpr std::size_t kDefaultCapacity = kMaxCapacity;

  /// `facade` must outlive the buffer.
  explicit OpBuffer(ConcurrentShardedReallocator* facade,
                    std::size_t capacity = kDefaultCapacity);

  /// Flushes any leftover ops (failures land in ops_not_enqueued — check
  /// pending() and Flush() explicitly when the final statuses matter).
  ~OpBuffer();

  OpBuffer(const OpBuffer&) = delete;
  OpBuffer& operator=(const OpBuffer&) = delete;

  /// Buffers one op; auto-flushes when the buffer reaches capacity (the
  /// only time Add can return non-ok: the flushed batch's first error).
  Status Add(const Request& op);
  Status Insert(ObjectId id, std::uint64_t size) {
    return Add(Request::Insert(id, size));
  }
  Status Delete(ObjectId id) { return Add(Request::Delete(id)); }

  /// Submits everything buffered as one batch. Ok when the buffer was
  /// empty or every op was enqueued; otherwise the batch's first drop
  /// status (the buffer is emptied either way — dropped ops are not
  /// retried, matching fire-and-forget Submit).
  Status Flush();

  std::size_t pending() const { return buffer_.size(); }
  std::size_t capacity() const { return capacity_; }

  struct Stats {
    std::uint64_t flushes = 0;       // total, including explicit/destructor
    std::uint64_t auto_flushes = 0;  // the subset triggered by a full buffer
    std::uint64_t ops_buffered = 0;  // every op ever Add()ed
    /// Ops a flush could not enqueue (bounded-retry drops).
    std::uint64_t ops_not_enqueued = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Status FlushInternal(bool auto_flush);

  ConcurrentShardedReallocator* facade_;
  std::size_t capacity_;
  std::vector<Request> buffer_;
  Stats stats_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_OP_BUFFER_H_
