#ifndef COSR_SERVICE_CONCURRENT_SHARDED_REALLOCATOR_H_
#define COSR_SERVICE_CONCURRENT_SHARDED_REALLOCATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/remote_queue.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_engine.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/request.h"

namespace cosr {

struct ReallocatorSpec;

/// How long a thread busy-polls before it parks on a condvar: an idle
/// worker waiting for any shard to have claimable work, and a caller
/// waiting for its op's completion (a synchronous Insert/Delete, or one
/// shard's Quiesce/CheckpointAll/Stats marker). A futex park/unpark pair
/// costs ~10 us on a 4-vCPU x86 VM, while a warm worker serves one op in
/// ~0.5 us, so an idle round trip that parks twice spends almost all of
/// its time waking threads. 50 us covers several back-to-back round trips
/// and still bounds the CPU an idle thread burns before it sleeps. Flush
/// and the backpressure wait park at once: no latency path waits on them.
inline constexpr std::chrono::microseconds kSpinBeforePark{50};

/// The concurrent execution mode of the service layer: the threaded driver
/// of ShardEngine. K shards as in ShardedReallocator, driven by a pool of
/// W worker threads, so the K reallocators genuinely run in parallel.
/// Every op reaches its shard the same way: pushed onto that shard's
/// lock-free RemoteQueue (one FIFO per shard). No shard belongs to a
/// worker. Any idle worker claims any shard that has queued work, drains
/// it into the engine and hands the claim back, so a shard stuck in a long
/// flush never holds up its siblings (work-conserving drain). The engine
/// executes and accounts for the op exactly as the inline facade's does;
/// this class keeps only what is about threads (queues, claims, parking,
/// backpressure, completions, Flush).
///
/// Claims. Each shard has one `claimed` flag. A worker takes it with an
/// exchange, hands the shard's debug fence to itself
/// (ShardEngine::HandOff), detaches the whole queue with TakeAll, executes
/// it in arrival order, and stores the flag back. So at most one thread
/// executes a shard at any time, and each claim synchronizes-with the
/// previous release: every drain happens-after the one before it, exactly
/// as if one thread owned the shard. Per-shard FIFO order, markers,
/// records, logs and listeners therefore behave as under a fixed owner;
/// only the thread differs from drain to drain.
///
/// Parking. A worker scans every shard, draining each it can claim, and
/// rescans after any drain. When a scan finds nothing, it spins for
/// kSpinBeforePark, counted in `spinning_`, polling for a *claimable*
/// shard (queue non-empty, flag clear). Then it checks again under
/// `park_mu_` and parks on `cv_work_` only if no shard is claimable. A
/// push that makes a queue non-empty (RemoteQueue reports it) wakes one
/// parked worker, by an empty critical section on `park_mu_` and
/// notify_one, unless some worker is spinning. Every later push onto that
/// queue is covered by the one that made it non-empty. Skipping the wake
/// while a worker spins matters: a woken worker that finds the op already
/// taken costs the producer a futex call and takes a core from the
/// spinners.
///
/// Why no wake-up is lost. The queue heads, the claim flags and
/// `spinning_` are only accessed seq_cst, so all those accesses lie in
/// one total order S, consistent with happens-before. A worker's *check*
/// is a scan, or a spin poll or park check that finds nothing claimable
/// (one that finds work leads to a scan): each loads every head, and the
/// flag of every non-empty queue. Every worker runs a check after each
/// release and after leaving its spin, and its last action before it
/// parks is a park check. Suppose every worker is parked while shard s
/// still holds the node of push P, the push that made s non-empty.
///   1. No claim of s follows P in S: its TakeAll would follow P too and
///      take P's node. So after P, s's flag is at most released, once,
///      and then stays clear.
///   2. So no check follows P in S. It would find s non-empty, and either
///      find the flag clear, so that s gets claimed after P (against 1), or
///      find it set, so that the holder releases it later and then runs a
///      check that finds it clear.
///   3. If P read `spinning_` > 0, some worker's decrement of `spinning_`
///      follows that read in S, and so does the check after it: against
///      2.
///   4. Otherwise P notified after an empty critical section on
///      `park_mu_`. A park check whose critical section came after P's
///      would happen-after P, against 2. So every worker was already
///      waiting when P notified, and the one it woke checked again after
///      P, against 2.
/// Destruction sets `stop_` under `park_mu_` and a worker exits only from
/// a park check that finds nothing claimable, so with "parked or exited"
/// in place of "parked" the same argument shows every queue is drained
/// before the last worker leaves.
///
/// Completions. A caller that waits for an op (a synchronous
/// Insert/Delete, or a Quiesce/CheckpointAll/Stats marker, one per shard)
/// keeps a Completion, which holds the op, and the op's queue node in its
/// own frame (on its stack, or in a vector that frame owns), and queues
/// that node, which points at the completion. The worker reads the node's
/// `next` before it executes the op; then it writes the Status, stores
/// `done` with release, and never touches the node or the completion
/// again: that store is its last touch, so the caller may return, and its
/// stack frame go, as soon as it sees the flag. The caller spins on `done`
/// for kSpinBeforePark, then parks on the op's lane's `cv_retired` with
/// `done` as the predicate. No wake-up is lost: the drain stores `done`
/// before its empty critical section on the lane's `mu` and its
/// notify_all, so a parking caller either sees the flag under `mu` or is
/// already waiting when the notify comes. A marker needs no Flush around
/// it: the shard's FIFO puts it behind every op submitted to that shard
/// before the call.
///
/// Routing is hash-only: an op's shard is a pure function of its id, so no
/// producer-side lock or id map exists on any submit path. Size-class and
/// least-loaded routing and the rebalance scan live on the inline driver
/// (ShardedReallocator); Make rejects the other policies here, and the
/// Options carry no rebalance fields.
///
/// Why that is sound: the source paper's guarantees are per-allocator, and
/// the shards' sub-problems are disjoint by construction. In concurrent
/// mode each shard owns a *private* AddressSpace root; its SubSpaceView is
/// still based at shard * subrange_span, so every physical coordinate,
/// placement decision, and per-shard footprint is identical to the
/// single-threaded facade over one shared parent (pinned op-for-op by
/// `exp_concurrent --smoke` and tests/concurrent_sharded_test.cc) — but no
/// two threads ever touch the same mutable storage state, so no cross-shard
/// locking exists anywhere on the hot path. The memory price is K private
/// slot tables instead of one shared one.
///
/// Thread-safety contract, per surface:
///   * Submit / Insert / Delete / SubmitMany —
///     thread-safe (MPSC: any number of producers). A per-op submission
///     is a batch of one, so all of them share the shard's FIFO: one
///     producer's ops for one shard execute in submission order whichever
///     entry points it mixes; with producers racing, cross-producer order
///     per shard is the queue arrival order.
///   * Flush / Quiesce / CheckpointAll — thread-safe; each returns once
///     everything submitted before the call has retired (Flush by the
///     lanes' completion counters, the other two by their markers'
///     completions, both release/acquire).
///   * Stats — thread-safe even while other producers keep submitting:
///     each shard is snapshotted by the worker draining it, through a
///     marker op that rides the same FIFO, so it reflects every op
///     enqueued before the call (plus possibly some concurrent ones) with
///     no racy reads.
///   * volume / reserved_footprint / counters — thread-safe at any time:
///     relaxed reads of each shard's two single-writer gauges
///     (ShardCounters: volume and reserved_footprint), summed on read;
///     exact once drained. Every other per-shard number (ops, peaks,
///     batches, latency) lives in the shard's record, which only the
///     worker holding the shard's claim touches; read it through Stats().
///   * AddShardListener / shard / shard_view / shard_space — the listener
///     hook must run before the first Insert/Delete (CHECK-enforced); the
///     accessors must only be read while no producer is submitting and
///     the facade is drained (external quiescence). A shard's listeners
///     fire on whichever worker holds its claim: never on two threads at
///     once, and each call happens-after the previous one. So per-shard
///     listeners need no locking at all (the documented fan-out rule),
///     while a listener shared across shards must be internally
///     synchronized.
///
/// Statuses are returned by the synchronous Insert/Delete or, for
/// fire-and-forget Submit/SubmitMany, counted per shard in failed_ops —
/// nothing fails silently. Duplicate inserts, missing deletes and zero
/// sizes are the shard's verdict: they reach the shard like any other op
/// and fail there.
class ConcurrentShardedReallocator final : public Reallocator {
 public:
  /// The shared shard settings (see ShardEngine::Options) plus the
  /// threading ones. `routing` must stay kHashId: Make rejects the other
  /// policies (they need cross-shard coordination, and only the inline
  /// driver keeps them).
  struct Options : ShardEngine::Options {
    /// Worker threads W (<= shard_count), a pool shared by all shards:
    /// any idle worker drains any shard with queued work. 0 means one
    /// worker per shard.
    std::uint32_t worker_threads = 0;
    /// Bound on each shard's in-flight ops (submitted - completed; the op
    /// executing right now counts). Producers block when the target shard
    /// is full (pure backpressure: every submitted op executes).
    std::size_t queue_capacity = 4096;
  };

  /// Builds K private shards, each an inner `inner_spec` reallocator (its
  /// shard_count and routing fields are ignored), and starts the W worker
  /// threads. Fails when the spec is unknown, options are
  /// degenerate, or options ask for non-hash routing.
  static Status Make(const ReallocatorSpec& inner_spec, const Options& options,
                     std::unique_ptr<ConcurrentShardedReallocator>* out);

  /// Drains all queues, then stops and joins the workers.
  ~ConcurrentShardedReallocator() override;

  /// Fire-and-forget submission, a batch of one. Blocks while the target
  /// shard is full, then enqueues the op; always returns Ok. The op's own
  /// outcome is the shard's status, counted in its failed_ops if it fails.
  Status Submit(const Request& op);

  /// Batched fire-and-forget submission: semantically `Submit(op)` for
  /// each op in order. A batch costs its producer one routing pass plus,
  /// per target shard, one recycled node from the shard's pool and one
  /// lock-free push; once the pools cover the in-flight cap it allocates
  /// nothing, and the worker frees nothing.
  ///
  /// Blocks while a target shard is full, so every op is enqueued: always
  /// returns Ok and sets `*accepted` (when non-null) to `count`. Each op's
  /// own outcome is the shard's status, counted in failed_ops.
  Status SubmitMany(const Request* ops, std::size_t count,
                    std::size_t* accepted = nullptr);

  /// Blocks until every op submitted before this call has retired.
  void Flush();

  // Reallocator interface: synchronous semantics via one round trip per
  // op through the shard's FIFO, waiting on a completion on the caller's
  // stack — correct from any thread. Both ends spin before they park
  // (kSpinBeforePark), so a round trip through an idle facade costs
  // ~2.5-3 us instead of the ~17-20 us of two thread wake-ups (K=8, W=3,
  // 4-vCPU x86 VM); the throughput path is still Submit + Flush.
  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;

  /// Merged relaxed view of the per-shard accumulators (exact once
  /// drained; a consistent running sum at any other time).
  std::uint64_t reserved_footprint() const override;
  std::uint64_t volume() const override;

  /// Runs every shard's deferred work on a worker, after every op
  /// submitted before the call, and returns once all of it has retired.
  void Quiesce() override { MarkEveryShard(ShardOpKind::kQuiesce, nullptr); }
  /// Like Quiesce, but checkpoints every managed shard — forcing a durable
  /// point on every per-shard move log when the facade was built with a
  /// DurabilityHub. No-op for unmanaged shards.
  void CheckpointAll() { MarkEveryShard(ShardOpKind::kCheckpoint, nullptr); }
  const char* name() const override { return name_.c_str(); }

  /// Snapshots per-shard and aggregate accounting via per-shard marker
  /// ops drained like any other op (see the class contract): consistent per
  /// shard, safe under concurrent submission, exact when quiesced.
  ShardStats Stats();

  /// Registers a listener on shard `index`'s private space. Must be called
  /// before the first Insert/Delete submission (CHECK-enforced; internal
  /// Stats/Quiesce markers don't count); events are delivered on the
  /// worker holding that shard's claim.
  void AddShardListener(std::uint32_t index, SpaceListener* listener);

  std::uint32_t shard_count() const { return engine_.shard_count(); }
  std::uint32_t worker_threads() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// The shard every op on `id` goes to: the hash spray, which ignores
  /// `size` (deletes pass 0).
  std::uint32_t shard_for(ObjectId id, std::uint64_t size) const {
    return RouteToShard(RoutingPolicy::kHashId, shard_count(), id, size);
  }

  /// Quiesced-read accessors (Flush first; see the class contract).
  const Reallocator& shard(std::uint32_t index) const {
    return engine_.shard(index);
  }
  const SubSpaceView& shard_view(std::uint32_t index) const {
    return engine_.shard_view(index);
  }
  const AddressSpace& shard_space(std::uint32_t index) const {
    return *roots_[index];
  }
  /// Any-time read: the shard's volume and reserved-footprint gauges.
  const ShardCounters& counters(std::uint32_t index) const {
    return engine_.counters(index);
  }

 private:
  /// A waiting caller's op and where it learns the outcome. It lives in
  /// the caller's frame, beside the op's queue node (see the class
  /// contract).
  struct Completion {
    ShardOp op;
    Status status;
    std::atomic<bool> done{false};
  };

  /// One queue node's payload: ops for the shard whose queue it sits on.
  /// A pooled node carries fire-and-forget requests in `ops`; a waiter's
  /// node carries none and points at the waiter's Completion.
  struct Batch {
    std::vector<ShardOp> ops;
    Completion* completion = nullptr;  // null for a pooled node
  };
  using Node = RemoteQueue<Batch>::Node;

  /// One shard's queue, node pool, claim and in-flight accounting.
  /// `submitted` is reserved (Reserve) right before each push; `completed`
  /// counts every executed op, published once per drain. Both are atomic,
  /// so Flush's wait predicate and the capacity gate never need `mu`,
  /// which guards only the condition waits. Aligned so two shards' hot
  /// atomics never share a cache line.
  ///
  /// The pool. The worker that drains a pooled node clears its `ops`
  /// (the vector keeps its capacity) and pushes it onto `free`. A producer
  /// that needs a node exchanges `spare` to null, refills it from `free`
  /// with one TakeStack when it was empty, takes the chain's first node
  /// and exchanges the rest back (NodeFromPool). No thread ever pops one
  /// node with a compare, so RemoteQueue's ABA argument covers the pool
  /// too. A node leaves the pool only after its ops are reserved, and is
  /// back in it before that room is released, so a lane never holds more
  /// than queue_capacity plus one node per producer.
  struct alignas(64) Lane {
    ~Lane();

    RemoteQueue<Batch> queue;
    RemoteQueue<Batch> free;
    std::atomic<Node*> spare{nullptr};
    /// Set while one worker drains the shard (see the class contract).
    std::atomic<bool> claimed{false};
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::mutex mu;
    /// Notified after every drain that retired ops: producers wait here
    /// for in-flight room, flushers for their target count, and waiting
    /// callers for their completions.
    std::condition_variable cv_retired;

    /// Queued work and no worker draining it.
    bool claimable() const {
      return !queue.empty() && !claimed.load(std::memory_order_seq_cst);
    }
  };

  ConcurrentShardedReallocator(const Options& options) : options_(options) {}

  static ShardOp MakeOp(const Request& op, std::uint64_t submit_ns);
  /// The fire-and-forget submission path behind Submit and SubmitMany:
  /// gathers the ops per shard, then Delivers each shard's share.
  void SubmitBatch(const Request* ops, std::size_t count);
  /// Capacity-gated delivery of `ops[order[0..count)]`, in that order, to
  /// `shard`'s queue: reserves room, waiting whenever the shard is full,
  /// and pushes each grant as one node from the shard's pool, until every
  /// op is queued.
  void Deliver(std::uint32_t shard, const Request* ops,
               const std::size_t* order, std::size_t count,
               std::uint64_t submit_ns);
  /// Takes a node from `lane`'s pool, allocating one when the pool is dry.
  static Node* NodeFromPool(Lane& lane);
  /// Queues a waiter's `node` on `shard` (one op of room), for Await.
  void DeliverWaiter(std::uint32_t shard, Node* node);
  /// Synchronous Insert/Delete: delivers `request` to its shard in a node
  /// on this stack, and returns the shard's verdict.
  Status RoundTrip(const Request& request);
  /// Delivers a `kind` marker to every shard, then awaits each. A
  /// snapshot marker writes shard i's record to `snapshots[i]`.
  void MarkEveryShard(ShardOpKind kind, ShardStats::PerShard* snapshots);
  /// Blocks until `completion`, queued on `shard`, is done: spins for
  /// kSpinBeforePark, then parks on the lane's `cv_retired`.
  void Await(std::uint32_t shard, const Completion& completion);
  /// Pushes `node` onto `shard`'s queue, waking a parked worker if the
  /// queue was empty. The caller has already counted its ops in
  /// `submitted`.
  void Push(std::uint32_t shard, Node* node);
  /// Claims up to `want` ops of `lane`'s in-flight room, waiting on
  /// `cv_retired` while the shard is full; returns how many (>= 1).
  std::size_t Reserve(Lane& lane, std::size_t want) const;
  bool HasRoom(const Lane& lane) const;
  /// Whether some shard is claimable.
  bool Claimable() const;
  /// Claims `shard` if it has queued work and is unclaimed, executes
  /// everything queued, and releases the claim. Returns whether it ran
  /// anything.
  bool TryDrain(std::uint32_t shard);
  /// Scans every shard from `first` on, draining each it can claim, until
  /// a scan finds nothing; then spins, and parks until some shard is
  /// claimable, or exits once stop_ is set and nothing is.
  void WorkerLoop(std::uint32_t first);

  Options options_;
  /// Private roots, one per shard. Declared before engine_ so the shards'
  /// views and reallocators are destroyed first.
  std::vector<std::unique_ptr<AddressSpace>> roots_;
  ShardEngine engine_;
  /// One lane per shard. Every op for the shard, requests and markers, is
  /// pushed onto its queue as a batch; only the claim holder takes.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  // The park state, `spinning_` and `requests_submitted_` each start a
  // cache line. Producers lock `park_mu_` on pushes onto empty queues and
  // count every batch in `requests_submitted_`; workers update
  // `spinning_`. None may share a line with another, or with the members
  // above that spinning workers read on every poll (`lanes_`, `engine_`).

  /// Idle workers park here; `park_mu_` guards stop_.
  alignas(64) std::mutex park_mu_;
  std::condition_variable cv_work_;
  bool stop_ = false;
  /// Workers in their spin phase. See the class contract.
  alignas(64) std::atomic<std::uint32_t> spinning_{0};

  /// Count of real (insert/delete) submissions — the AddShardListener
  /// gate; internal quiesce/snapshot markers do not count.
  alignas(64) std::atomic<std::uint64_t> requests_submitted_{0};

  std::string name_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_CONCURRENT_SHARDED_REALLOCATOR_H_
