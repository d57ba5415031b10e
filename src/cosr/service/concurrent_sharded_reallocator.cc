#include "cosr/service/concurrent_sharded_reallocator.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "cosr/common/check.h"
#include "cosr/realloc/factory.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cosr {
namespace {

/// Polls `ready` for up to kSpinBeforePark, with a CPU pause between
/// polls; returns whether it became true. On false the caller parks on
/// its condvar with the same predicate, so an event that lands after the
/// last poll is still seen.
template <typename Ready>
bool SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
  return true;
}

/// The most ops one pooled node carries: a larger grant goes out as
/// several nodes, so a recycled node's vector never holds more than
/// 256 * sizeof(ShardOp) = 10 KiB, whatever batch sizes it has seen.
constexpr std::size_t kMaxOpsPerNode = 256;

}  // namespace

Status ConcurrentShardedReallocator::Make(
    const ReallocatorSpec& inner_spec, const Options& options,
    std::unique_ptr<ConcurrentShardedReallocator>* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must be non-null");
  }
  if (options.worker_threads > options.shard_count) {
    return Status::InvalidArgument(
        "worker_threads must be <= shard_count (at most one worker can "
        "drain a shard at a time)");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.routing != RoutingPolicy::kHashId) {
    // Each allocator's guarantees hold on its own and the shards'
    // sub-ranges are disjoint, so hash routing needs no cross-shard
    // coordination. The other policies would (an id map kept at submit
    // time); the inline driver keeps them.
    return Status::InvalidArgument(
        "the threaded driver routes by hash only: use kHashId routing, or "
        "ShardedReallocator for the other policies");
  }

  auto facade = std::unique_ptr<ConcurrentShardedReallocator>(
      new ConcurrentShardedReallocator(options));
  // A private root per shard: the views are still based at i * span, so
  // the physical layout matches the inline facade's shared parent
  // coordinate for coordinate, but workers share no mutable storage state.
  std::vector<Space*> roots;
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    facade->roots_.push_back(std::make_unique<AddressSpace>());
    roots.push_back(facade->roots_.back().get());
  }
  COSR_RETURN_IF_ERROR(facade->engine_.Init(
      inner_spec, options, ShardEngine::Mode::kThreaded, roots));

  const std::uint32_t shards = options.shard_count;
  const std::uint32_t workers =
      options.worker_threads == 0 ? shards : options.worker_threads;
  for (std::uint32_t i = 0; i < shards; ++i) {
    facade->lanes_.push_back(std::make_unique<Lane>());
  }
  facade->name_ = "concurrent-sharded[" + std::to_string(shards) + "x" +
                  std::to_string(workers) + ",hash]/" + inner_spec.algorithm;
  // Start the threads only once every shard and lane exists. Each worker
  // starts its scans at a different shard, so idle workers spread over
  // the shards instead of racing for the same claim.
  ConcurrentShardedReallocator* self = facade.get();
  facade->workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    const std::uint32_t first = w * shards / workers;
    facade->workers_.emplace_back([self, first] { self->WorkerLoop(first); });
  }
  *out = std::move(facade);
  return Status::Ok();
}

ConcurrentShardedReallocator::~ConcurrentShardedReallocator() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  // Workers drain every queue before honoring stop.
  for (std::thread& worker : workers_) worker.join();
}

ConcurrentShardedReallocator::Lane::~Lane() {
  // `queue` and `free` delete their own leftovers.
  for (Node* node = spare.load(std::memory_order_relaxed); node != nullptr;) {
    Node* next = node->next;
    delete node;
    node = next;
  }
}

ShardOp ConcurrentShardedReallocator::MakeOp(const Request& op,
                                             std::uint64_t submit_ns) {
  ShardOp shard_op;
  shard_op.kind = op.type == Request::Type::kInsert ? ShardOpKind::kInsert
                                                    : ShardOpKind::kDelete;
  shard_op.id = op.id;
  shard_op.size = op.size;
  shard_op.submit_ns = submit_ns;
  return shard_op;
}

bool ConcurrentShardedReallocator::HasRoom(const Lane& lane) const {
  // `completed` is read first: it only counts ops `submitted` already
  // counted, so the difference never underflows; reading it early at
  // worst overestimates in-flight, which is the safe direction.
  const std::uint64_t completed =
      lane.completed.load(std::memory_order_acquire);
  return lane.submitted.load(std::memory_order_relaxed) - completed <
         options_.queue_capacity;
}

std::size_t ConcurrentShardedReallocator::Reserve(Lane& lane,
                                                  std::size_t want) const {
  for (;;) {
    const std::uint64_t completed =
        lane.completed.load(std::memory_order_acquire);
    std::uint64_t submitted = lane.submitted.load(std::memory_order_relaxed);
    // `submitted` - `completed` is the in-flight count (see HasRoom). A
    // failed CAS reloads `submitted`, which only grows, so the stale
    // `completed` keeps erring on the safe side.
    while (submitted - completed < options_.queue_capacity) {
      const std::uint64_t granted = std::min<std::uint64_t>(
          want, options_.queue_capacity - (submitted - completed));
      if (lane.submitted.compare_exchange_weak(submitted,
                                               submitted + granted,
                                               std::memory_order_relaxed)) {
        return static_cast<std::size_t>(granted);
      }
    }
    std::unique_lock<std::mutex> lock(lane.mu);
    lane.cv_retired.wait(lock, [&] { return HasRoom(lane); });
  }
}

ConcurrentShardedReallocator::Node* ConcurrentShardedReallocator::NodeFromPool(
    Lane& lane) {
  Node* chain = lane.spare.exchange(nullptr, std::memory_order_acquire);
  if (chain == nullptr) chain = lane.free.TakeStack();
  if (chain == nullptr) return new Node();
  if (Node* rest = chain->next) {
    // Another producer may have parked its own chain here meanwhile: its
    // nodes go back onto the free stack, one push each.
    Node* other = lane.spare.exchange(rest, std::memory_order_acq_rel);
    while (other != nullptr) {
      Node* next = other->next;
      lane.free.Push(other);
      other = next;
    }
  }
  return chain;
}

void ConcurrentShardedReallocator::Push(std::uint32_t shard, Node* node) {
  const bool was_empty = lanes_[shard]->queue.Push(node);
  // Empty -> non-empty is the only transition that can race a worker going
  // to sleep, and a spinning worker will see it (the class contract has
  // the argument). The empty critical section orders our push against
  // every park check.
  if (was_empty && spinning_.load(std::memory_order_seq_cst) == 0) {
    { std::lock_guard<std::mutex> lock(park_mu_); }
    cv_work_.notify_one();
  }
}

void ConcurrentShardedReallocator::Deliver(std::uint32_t shard,
                                           const Request* ops,
                                           const std::size_t* order,
                                           std::size_t count,
                                           std::uint64_t submit_ns) {
  Lane& lane = *lanes_[shard];
  // Chunked delivery: never push more than the room reserved, so a batch
  // larger than queue_capacity still respects the in-flight bound. The
  // node is taken only once its room is, which bounds the pool.
  for (std::size_t delivered = 0; delivered < count;) {
    const std::size_t granted =
        Reserve(lane, std::min(count - delivered, kMaxOpsPerNode));
    Node* node = NodeFromPool(lane);
    std::vector<ShardOp>& node_ops = node->value.ops;
    node_ops.reserve(granted);  // exact: a node keeps its capacity
    for (std::size_t k = delivered; k < delivered + granted; ++k) {
      node_ops.push_back(MakeOp(ops[order[k]], submit_ns));
    }
    Push(shard, node);
    delivered += granted;
  }
}

void ConcurrentShardedReallocator::DeliverWaiter(std::uint32_t shard,
                                                 Node* node) {
  Reserve(*lanes_[shard], 1);
  Push(shard, node);
}

Status ConcurrentShardedReallocator::Submit(const Request& op) {
  SubmitBatch(&op, 1);
  return Status::Ok();
}

Status ConcurrentShardedReallocator::SubmitMany(const Request* ops,
                                                std::size_t count,
                                                std::size_t* accepted) {
  SubmitBatch(ops, count);
  if (accepted != nullptr) *accepted = count;
  return Status::Ok();
}

void ConcurrentShardedReallocator::SubmitBatch(const Request* ops,
                                               std::size_t count) {
  requests_submitted_.fetch_add(count, std::memory_order_relaxed);
  // One submit stamp for the whole batch: the batch is the submission
  // event, and a per-op clock read would cost more than the queue hop the
  // batch exists to amortize. Taken before any backpressure wait, so the
  // recorded queue-wait includes producer-side stalls.
  const std::uint64_t submit_ns = MonotonicNanos();
  // Group the batch per shard with a stable counting sort, so each
  // shard's ops keep their order, then deliver each shard's share with
  // capacity-gated lock-free pushes — no producer-side lock anywhere. The
  // scratch is this thread's, reused by every batch on any facade, so
  // routing allocates only while it grows.
  struct Scratch {
    std::vector<std::uint32_t> route;  // op -> shard
    std::vector<std::size_t> order;    // op indices grouped by shard
    std::vector<std::size_t> first;    // shard -> its start in `order`
  };
  thread_local Scratch scratch;
  const std::uint32_t shards = shard_count();
  scratch.route.resize(count);
  scratch.order.resize(count);
  scratch.first.assign(shards, 0);
  for (std::size_t i = 0; i < count; ++i) {
    scratch.route[i] = shard_for(ops[i].id, ops[i].size);
    ++scratch.first[scratch.route[i]];
  }
  // Inclusive prefix sums, then a backwards fill: each shard's end
  // counts down to its start.
  std::partial_sum(scratch.first.begin(), scratch.first.end(),
                   scratch.first.begin());
  for (std::size_t i = count; i-- > 0;) {
    scratch.order[--scratch.first[scratch.route[i]]] = i;
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::size_t end = s + 1 < shards ? scratch.first[s + 1] : count;
    if (end > scratch.first[s]) {
      Deliver(s, ops, scratch.order.data() + scratch.first[s],
              end - scratch.first[s], submit_ns);
    }
  }
}

void ConcurrentShardedReallocator::Flush() {
  for (std::unique_ptr<Lane>& lane : lanes_) {
    std::unique_lock<std::mutex> lock(lane->mu);
    // `submitted` is reserved just before each push, and a producer pushes
    // everything it reserved before it can block, so a captured target is
    // always eventually completed.
    const std::uint64_t target =
        lane->submitted.load(std::memory_order_relaxed);
    lane->cv_retired.wait(lock, [&] {
      return lane->completed.load(std::memory_order_acquire) >= target;
    });
  }
}

void ConcurrentShardedReallocator::Await(std::uint32_t shard,
                                         const Completion& completion) {
  const auto done = [&] {
    return completion.done.load(std::memory_order_acquire);
  };
  if (SpinUntil(done)) return;
  Lane& lane = *lanes_[shard];
  std::unique_lock<std::mutex> lock(lane.mu);
  lane.cv_retired.wait(lock, done);
}

Status ConcurrentShardedReallocator::RoundTrip(const Request& request) {
  requests_submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t shard = shard_for(request.id, request.size);
  Completion completion;
  completion.op = MakeOp(request, MonotonicNanos());
  Node node;
  node.value.completion = &completion;
  DeliverWaiter(shard, &node);
  Await(shard, completion);
  return std::move(completion.status);
}

Status ConcurrentShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  return RoundTrip(Request::Insert(id, size));
}

Status ConcurrentShardedReallocator::Delete(ObjectId id) {
  return RoundTrip(Request::Delete(id));
}

std::uint64_t ConcurrentShardedReallocator::reserved_footprint() const {
  return engine_.reserved_footprint();
}

std::uint64_t ConcurrentShardedReallocator::volume() const {
  return engine_.volume();
}

void ConcurrentShardedReallocator::MarkEveryShard(
    ShardOpKind kind, ShardStats::PerShard* snapshots) {
  // Each shard's FIFO puts its marker behind every op submitted before
  // this call, whichever entry point submitted it, and only the claim
  // holder ever touches the shard's mutable state. So the marker runs
  // race-free even while other producers keep submitting (their later ops
  // simply land behind it), and no Flush is needed around it.
  std::vector<Completion> completions(shard_count());
  std::vector<Node> nodes(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    completions[i].op.kind = kind;
    if (snapshots != nullptr) completions[i].op.snapshot_out = &snapshots[i];
    nodes[i].value.completion = &completions[i];
    DeliverWaiter(i, &nodes[i]);
  }
  for (std::uint32_t i = 0; i < shard_count(); ++i) Await(i, completions[i]);
}

ShardStats ConcurrentShardedReallocator::Stats() {
  std::vector<ShardStats::PerShard> shards(shard_count());
  MarkEveryShard(ShardOpKind::kSnapshot, shards.data());
  return ShardEngine::MergeStats(std::move(shards));
}

void ConcurrentShardedReallocator::AddShardListener(std::uint32_t index,
                                                    SpaceListener* listener) {
  COSR_CHECK_MSG(requests_submitted_.load(std::memory_order_relaxed) == 0,
                 "AddShardListener must run before the first Insert/Delete "
                 "submission");
  COSR_CHECK_LT(index, shard_count());
  roots_[index]->AddListener(listener);
}

bool ConcurrentShardedReallocator::Claimable() const {
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->claimable()) return true;
  }
  return false;
}

bool ConcurrentShardedReallocator::TryDrain(std::uint32_t shard) {
  Lane& lane = *lanes_[shard];
  if (!lane.claimable() ||
      lane.claimed.exchange(true, std::memory_order_seq_cst)) {
    return false;
  }
  // The exchange synchronizes-with the previous holder's release store
  // below, so every write of the previous drain happens-before this one.
  engine_.HandOff(shard);
  ShardStats::PerShard& record = engine_.record(shard);
  // Take the whole list in one exchange, then execute node by node in
  // arrival order. Batches are counted before they execute, so a
  // snapshot marker later in the FIFO sees every earlier one.
  std::uint64_t executed = 0;
  Node* node = lane.queue.TakeAll();
  while (node != nullptr) {
    // Read first: a waiter's node is in the waiter's frame, which may go
    // as soon as the `done` store below lands.
    Node* const next = node->next;
    Batch& batch = node->value;
    if (batch.completion == nullptr) {
      // A pooled node: fire-and-forget requests. One clock read per op,
      // not two: each op's end timestamp is the next op's start (the
      // worker runs them back to back).
      ++record.remote_batches;
      record.batched_ops += batch.ops.size();
      std::uint64_t now = MonotonicNanos();
      for (const ShardOp& op : batch.ops) {
        Status status;
        now = engine_.Execute(shard, op, now, &status);
      }
      executed += batch.ops.size();
      batch.ops.clear();  // keeps its capacity for the next batch
      lane.free.Push(node);
    } else {
      // A waiter's op. Markers carry no request and do not count.
      Completion* completion = batch.completion;
      if (completion->op.kind == ShardOpKind::kInsert ||
          completion->op.kind == ShardOpKind::kDelete) {
        ++record.remote_batches;
        ++record.batched_ops;
      }
      engine_.Execute(shard, completion->op, MonotonicNanos(),
                      &completion->status);
      // The last touch of the node and the completion: the waiter may
      // return, and its stack frame go, as soon as it sees the flag.
      completion->done.store(true, std::memory_order_release);
      ++executed;
    }
    node = next;
  }
  // Every op taken was reserved and is not yet counted in `completed`, so
  // one drain never runs more than the in-flight cap. A recycled node that
  // kept an old op would break this before it wrapped the in-flight count.
  COSR_CHECK_LE(executed, options_.queue_capacity);
  if (executed > 0) {
    // The release pairs with Flush's acquire: once a flusher observes the
    // count, every effect of the drain is visible to it.
    lane.completed.fetch_add(executed, std::memory_order_release);
    {
      // An empty critical section before the notify, so a producer,
      // flusher or waiting caller can never check its predicate between
      // our increment (or `done` store) and our notify and then sleep
      // forever.
      std::lock_guard<std::mutex> lock(lane.mu);
    }
    lane.cv_retired.notify_all();
  }
  lane.claimed.store(false, std::memory_order_seq_cst);
  return executed > 0;
}

void ConcurrentShardedReallocator::WorkerLoop(std::uint32_t first) {
  const std::uint32_t shards = shard_count();
  for (;;) {
    bool ran = false;
    for (std::uint32_t k = 0; k < shards; ++k) {
      ran = TryDrain((first + k) % shards) || ran;
    }
    if (ran) continue;
    // Spin before parking: work that lands within the window is taken
    // without a wake-up, and while we spin, producers skip the wake-up.
    spinning_.fetch_add(1, std::memory_order_seq_cst);
    const bool found = SpinUntil([this] { return Claimable(); });
    spinning_.fetch_sub(1, std::memory_order_seq_cst);
    if (found) continue;
    std::unique_lock<std::mutex> lock(park_mu_);
    cv_work_.wait(lock, [this] { return Claimable() || stop_; });
    // Stop only once no shard has claimable work.
    if (stop_ && !Claimable()) break;
  }
}

}  // namespace cosr
