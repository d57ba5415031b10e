#include "cosr/service/concurrent_sharded_reallocator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "cosr/common/check.h"
#include "cosr/durability/durability_hub.h"
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

}  // namespace

const Status& OpToken::Wait() const {
  if (!SpinUntil([&] { return done(); })) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done(); });
  }
  return status_;
}

Status ConcurrentShardedReallocator::Make(
    const ReallocatorSpec& inner_spec, const Options& options,
    std::unique_ptr<ConcurrentShardedReallocator>* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must be non-null");
  }
  if (options.shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.worker_threads > options.shard_count) {
    return Status::InvalidArgument(
        "worker_threads must be <= shard_count (a shard is owned by "
        "exactly one worker)");
  }
  if (options.subrange_span == 0 ||
      options.subrange_span > ~std::uint64_t{0} / options.shard_count) {
    return Status::InvalidArgument("subrange_span degenerate for K shards");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  const bool needs_map =
      RoutingNeedsPlacementMap(options.routing) || options.rebalance;
  if (needs_map && AlgorithmInsertCanFailOnFreshId(inner_spec.algorithm)) {
    // The placement map marks an id live at submit time; an inner
    // algorithm that can then reject the insert on the shard would leave
    // the map permanently claiming a ghost object — and a migration's
    // destination insert has no submit-time rejection path at all.
    return Status::FailedPrecondition(
        inner_spec.algorithm +
        " inserts can fail on the shard, which the submit-time id "
        "placement map (map-keeping routing or rebalance) cannot "
        "represent; use hash routing without rebalance");
  }

  DurabilityHub* durability = inner_spec.durability;
  if (durability != nullptr &&
      !AlgorithmNeedsCheckpointManager(inner_spec.algorithm)) {
    return Status::FailedPrecondition(
        "durability requires a checkpoint-managed algorithm "
        "(checkpointed/deamortized); " +
        inner_spec.algorithm + " never checkpoints, so its log would have "
        "no recoverable prefix");
  }

  ReallocatorSpec spec = inner_spec;
  spec.shard_count = 1;  // the facade is the only sharding layer
  spec.worker_threads = 0;
  spec.durability = nullptr;  // per-shard wiring happens here, not inside

  const std::uint32_t workers = options.worker_threads == 0
                                    ? options.shard_count
                                    : options.worker_threads;

  auto facade = std::unique_ptr<ConcurrentShardedReallocator>(
      new ConcurrentShardedReallocator(options));
  facade->needs_routing_map_ = needs_map;
  facade->shards_.reserve(options.shard_count);
  facade->counters_ = std::vector<ShardCounters>(options.shard_count);
  facade->latency_ = std::vector<ShardLatencyRecorders>(options.shard_count);
  facade->dropped_ops_.assign(options.shard_count, 0);
  if (needs_map) facade->stamped_requests_.assign(options.shard_count, 0);
  if (options.routing == RoutingPolicy::kLeastLoaded) {
    facade->predicted_volume_.assign(options.shard_count, 0);
  }
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    Shard shard;
    // A private root per shard: the view is still based at i * span, so
    // the physical layout matches the single-threaded facade's shared
    // parent coordinate-for-coordinate, but workers share no mutable
    // storage state.
    shard.space = std::make_unique<AddressSpace>();
    shard.remote = std::make_unique<RemoteQueue<std::vector<Item>>>();
    if (AlgorithmNeedsCheckpointManager(spec.algorithm)) {
      shard.manager = std::make_unique<CheckpointManager>();
    }
    shard.view = std::make_unique<SubSpaceView>(
        shard.space.get(), std::uint64_t{i} * options.subrange_span,
        options.subrange_span, shard.manager.get());
    Status status = MakeReallocator(spec, shard.view.get(), &shard.inner);
    if (!status.ok()) return status;
    if (durability != nullptr) {
      // Private roots see only their own shard's events (in based/global
      // coordinates), so the log attaches directly — no range filter —
      // and fires exclusively on the shard's owning worker thread.
      MoveLog* log = durability->LogForShard(i);
      shard.log = log;
      shard.manager->AttachDurabilityLog(log);
      shard.space->AddListener(log);
    }
    shard.worker = i % workers;
    facade->shards_.push_back(std::move(shard));
  }
  facade->name_ =
      "concurrent-sharded[" + std::to_string(options.shard_count) + "x" +
      std::to_string(workers) + "," + RoutingPolicyName(options.routing) +
      (options.rebalance ? ",rebalance" : "") + "]/" + spec.algorithm;

  facade->workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    facade->workers_.push_back(std::make_unique<Worker>());
    facade->workers_.back()->last_ops.assign(options.shard_count, 0);
  }
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    facade->workers_[facade->shards_[i].worker]->owned_shards.push_back(i);
  }
  // Start the threads only once every shard and queue exists.
  for (std::uint32_t w = 0; w < workers; ++w) {
    Worker* worker = facade->workers_[w].get();
    ConcurrentShardedReallocator* self = facade.get();
    worker->thread = std::thread([self, worker] { self->WorkerLoop(*worker); });
  }
  *out = std::move(facade);
  return Status::Ok();
}

ConcurrentShardedReallocator::~ConcurrentShardedReallocator() {
  for (std::unique_ptr<Worker>& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->stop = true;
    }
    worker->cv_ready.notify_all();
  }
  // Workers drain their remaining queue before honoring stop.
  for (std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

ConcurrentShardedReallocator::Item ConcurrentShardedReallocator::MakeItem(
    const Request& op, std::uint32_t shard, std::uint64_t submit_ns,
    std::shared_ptr<OpToken> token) {
  Item item;
  item.kind =
      op.type == Request::Type::kInsert ? OpKind::kInsert : OpKind::kDelete;
  item.shard = shard;
  item.id = op.id;
  item.size = op.size;
  item.submit_ns = submit_ns;
  item.token = std::move(token);
  return item;
}

void ConcurrentShardedReallocator::RecordDrop(std::uint32_t shard,
                                              std::uint64_t count,
                                              const Status& status) {
  std::lock_guard<std::mutex> drop_lock(drop_mu_);
  dropped_ops_[shard] += count;
  last_drop_status_ = status;
}

bool ConcurrentShardedReallocator::HasRoom(const Worker& worker) const {
  // `completed` is read first: it only counts ops `submitted` already
  // counted, so the difference never underflows; reading it early at
  // worst overestimates in-flight, which is the safe direction.
  const std::uint64_t completed =
      worker.completed.load(std::memory_order_acquire);
  return worker.submitted.load(std::memory_order_relaxed) - completed <
         options_.queue_capacity;
}

std::size_t ConcurrentShardedReallocator::Reserve(Worker& worker,
                                                  std::size_t want) const {
  const std::uint64_t completed =
      worker.completed.load(std::memory_order_acquire);
  std::uint64_t submitted = worker.submitted.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t in_flight = submitted - completed;  // see HasRoom
    if (in_flight >= options_.queue_capacity) return 0;
    const std::uint64_t granted = std::min<std::uint64_t>(
        want, options_.queue_capacity - in_flight);
    // A failed CAS reloads `submitted`, which only grows, so the stale
    // `completed` keeps erring on the safe side.
    if (worker.submitted.compare_exchange_weak(submitted, submitted + granted,
                                               std::memory_order_relaxed)) {
      return static_cast<std::size_t>(granted);
    }
  }
}

void ConcurrentShardedReallocator::Push(std::uint32_t shard,
                                        std::vector<Item> items) {
  Worker& worker = WorkerOf(shard);
  const bool was_empty = shards_[shard].remote->Push(
      new RemoteQueue<std::vector<Item>>::Node(std::move(items)));
  if (was_empty) {
    // Empty -> non-empty is the only transition that can race a worker
    // going to sleep. The empty critical section pairs our release-push
    // with the worker's under-lock predicate check: either the worker
    // sees the push, or it is already waiting and the notify lands.
    { std::lock_guard<std::mutex> lock(worker.mu); }
    worker.cv_ready.notify_one();
  }
}

Status ConcurrentShardedReallocator::Deliver(std::uint32_t shard,
                                             std::vector<Item> items,
                                             bool may_drop,
                                             std::size_t* delivered) {
  *delivered = 0;
  const std::size_t total = items.size();
  Worker& worker = WorkerOf(shard);
  const bool droppable = may_drop && options_.submit_max_retries > 0;
  auto backoff = options_.submit_retry_backoff;
  std::size_t attempts = 0;
  while (*delivered < total) {
    const std::size_t granted = Reserve(worker, total - *delivered);
    if (granted == 0) {
      std::unique_lock<std::mutex> lock(worker.mu);
      const auto room = [&] { return HasRoom(worker); };
      if (!droppable) {
        worker.cv_space.wait(lock, room);
        continue;
      }
      if (attempts == options_.submit_max_retries) break;  // drop suffix
      ++attempts;
      worker.cv_space.wait_for(lock, backoff, room);
      backoff *= 2;
      continue;
    }
    // Chunked delivery: never push more than the room reserved, so a
    // retry exhaustion drops exactly the undelivered suffix.
    if (granted == total) {
      Push(shard, std::move(items));
    } else {
      const auto first =
          items.begin() + static_cast<std::ptrdiff_t>(*delivered);
      Push(shard, std::vector<Item>(
                      std::make_move_iterator(first),
                      std::make_move_iterator(
                          first + static_cast<std::ptrdiff_t>(granted))));
    }
    *delivered += granted;
    attempts = 0;
    backoff = options_.submit_retry_backoff;
  }
  if (*delivered == total) return Status::Ok();
  const std::size_t dropped = total - *delivered;
  Status status = Status::ResourceExhausted(
      "shard " + std::to_string(shard) + " queue full after " +
      std::to_string(options_.submit_max_retries) +
      " bounded retries; dropped batch suffix of " + std::to_string(dropped) +
      " ops");
  RecordDrop(shard, dropped, status);
  for (std::size_t i = *delivered; i < total; ++i) {
    if (items[i].token != nullptr) items[i].token->Complete(status);
  }
  return status;
}

void ConcurrentShardedReallocator::SubmitMarker(Item item) {
  const std::uint32_t shard = item.shard;
  std::vector<Item> items;
  items.push_back(std::move(item));
  std::size_t delivered = 0;
  Deliver(shard, std::move(items), /*may_drop=*/false, &delivered);
}

Status ConcurrentShardedReallocator::Submit(const Request& op) {
  return SubmitBatch(&op, 1, /*tokens=*/nullptr, /*may_drop=*/true,
                     /*accepted=*/nullptr);
}

std::shared_ptr<OpToken> ConcurrentShardedReallocator::SubmitTracked(
    const Request& op) {
  auto token = std::make_shared<OpToken>();
  // A token must retire, so a tracked single op never drops.
  SubmitBatch(&op, 1, &token, /*may_drop=*/false, /*accepted=*/nullptr);
  return token;
}

Status ConcurrentShardedReallocator::SubmitMany(const Request* ops,
                                                std::size_t count,
                                                std::size_t* accepted) {
  return SubmitBatch(ops, count, /*tokens=*/nullptr, /*may_drop=*/true,
                     accepted);
}

Status ConcurrentShardedReallocator::SubmitMany(const std::vector<Request>& ops,
                                                std::size_t* accepted) {
  return SubmitMany(ops.data(), ops.size(), accepted);
}

std::vector<std::shared_ptr<OpToken>>
ConcurrentShardedReallocator::SubmitManyTracked(const Request* ops,
                                                std::size_t count) {
  std::vector<std::shared_ptr<OpToken>> tokens;
  tokens.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tokens.push_back(std::make_shared<OpToken>());
  }
  SubmitBatch(ops, count, tokens.data(), /*may_drop=*/true,
              /*accepted=*/nullptr);
  return tokens;
}

Status ConcurrentShardedReallocator::SubmitBatch(
    const Request* ops, std::size_t count, std::shared_ptr<OpToken>* tokens,
    bool may_drop, std::size_t* accepted) {
  requests_submitted_.fetch_add(count, std::memory_order_relaxed);
  // One submit stamp for the whole batch: the batch is the submission
  // event, and a per-op clock read would cost more than the queue hop the
  // batch exists to amortize. Taken before any routing or backpressure
  // wait, so the recorded queue-wait includes producer-side stalls.
  const std::uint64_t submit_ns = MonotonicNanos();
  std::size_t delivered = 0;
  const Status status =
      needs_routing_map_
          ? SubmitMapped(ops, count, tokens, submit_ns, &delivered)
          : SubmitHashed(ops, count, tokens, submit_ns, may_drop, &delivered);
  if (accepted != nullptr) *accepted = delivered;
  return status;
}

Status ConcurrentShardedReallocator::SubmitHashed(
    const Request* ops, std::size_t count, std::shared_ptr<OpToken>* tokens,
    std::uint64_t submit_ns, bool may_drop, std::size_t* accepted) {
  // Bucket the batch per shard, preserving op order within each shard,
  // and deliver each bucket with capacity-gated lock-free pushes — no
  // producer-side lock anywhere.
  std::vector<std::vector<Item>> buckets(shard_count());
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t shard = shard_for(ops[i].id, ops[i].size);
    buckets[shard].push_back(MakeItem(ops[i], shard, submit_ns,
                                      tokens != nullptr ? tokens[i] : nullptr));
  }
  // A drop statuses the batch with the failure of the *earliest* op (in
  // batch order) that failed to deliver, across all shard buckets.
  std::size_t first_error_index = count;
  Status first_error;
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    if (buckets[s].empty()) continue;
    std::size_t delivered = 0;
    Status status = Deliver(s, std::move(buckets[s]), may_drop, &delivered);
    *accepted += delivered;
    if (status.ok()) continue;
    // Cold path: find the batch index of shard s's first undelivered op.
    std::size_t seen = 0;
    for (std::size_t i = 0; i < first_error_index; ++i) {
      if (shard_for(ops[i].id, ops[i].size) == s && seen++ == delivered) {
        first_error_index = i;
        first_error = std::move(status);
        break;
      }
    }
  }
  return first_error;
}

Status ConcurrentShardedReallocator::SubmitMapped(
    const Request* ops, std::size_t count, std::shared_ptr<OpToken>* tokens,
    std::uint64_t submit_ns, std::size_t* accepted) {
  // Map-keeping modes cannot re-derive an op's shard from the id alone
  // (size-class deletes carry no size; least-loaded decisions depended on
  // load; migrated ids' hashes are stale), so the facade keeps an
  // id -> shard map, maintained at submit time. An op that reaches its
  // shard always succeeds (Make rejects inner algorithms whose inserts
  // can fail on a fresh id), and nothing here drops, so the map stays a
  // faithful prediction of execution.
  Status first_error;
  std::vector<std::vector<Item>> staged(shard_count());
  const auto push_staged = [&] {
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (staged[s].empty()) continue;
      Push(s, std::move(staged[s]));
      staged[s].clear();
    }
  };
  std::unique_lock<std::mutex> lock(routing_mu_);
  for (std::size_t i = 0; i < count;) {
    const Request& op = ops[i];
    const bool is_insert = op.type == Request::Type::kInsert;
    const std::uint32_t holder = placement_.Lookup(op.id, shard_count());
    Status rejected;
    if (is_insert && op.size == 0) {
      rejected = Status::InvalidArgument("size must be positive");
    } else if (is_insert && holder != shard_count()) {
      rejected = Status::AlreadyExists("object " + std::to_string(op.id) +
                                       " is live on shard " +
                                       std::to_string(holder));
    } else if (!is_insert && holder == shard_count()) {
      rejected = Status::NotFound("object " + std::to_string(op.id) +
                                  " is not live on any shard");
    }
    if (!rejected.ok()) {
      // Submit-time rejection skips just this op; the batch continues.
      if (tokens != nullptr) tokens[i]->Complete(rejected);
      if (first_error.ok()) first_error = std::move(rejected);
      ++i;
      continue;
    }
    const std::uint32_t target =
        is_insert ? RouteInsertLocked(op.id, op.size) : holder;
    Worker& worker = WorkerOf(target);
    if (Reserve(worker, 1) == 0) {
      // Full: hand over what is staged (it holds reservations), then wait
      // with the map lock released. Op i is routed afresh afterwards —
      // other producers may have moved the map meanwhile.
      push_staged();
      lock.unlock();
      {
        std::unique_lock<std::mutex> worker_lock(worker.mu);
        worker.cv_space.wait(worker_lock, [&] { return HasRoom(worker); });
      }
      lock.lock();
      continue;
    }
    if (is_insert) {
      placement_.TryAssign(op.id, target);
      if (!predicted_volume_.empty()) {
        predicted_volume_[target] += op.size;
        sizes_.emplace(op.id, op.size);
      }
    } else {
      placement_.Erase(op.id);
      if (!predicted_volume_.empty()) {
        auto it = sizes_.find(op.id);
        predicted_volume_[target] -= it->second;
        sizes_.erase(it);
      }
    }
    ++stamped_requests_[target];
    staged[target].push_back(MakeItem(op, target, submit_ns,
                                      tokens != nullptr ? tokens[i] : nullptr));
    ++*accepted;
    ++i;
  }
  push_staged();
  return first_error;
}

void ConcurrentShardedReallocator::Flush() {
  // With rebalancing, a drain cycle publishes its completions only after
  // its rebalance scan pushed any migrations it started, possibly onto a
  // worker this pass already checked; a second pass drains those. Their
  // cycles carry no requests and never scan, so no third pass is needed.
  const int passes = options_.rebalance ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::unique_ptr<Worker>& worker : workers_) {
      std::unique_lock<std::mutex> lock(worker->mu);
      // `submitted` is reserved just before each push, and a producer
      // pushes everything it reserved before it can block, so a captured
      // target is always eventually completed.
      const std::uint64_t target =
          worker->submitted.load(std::memory_order_relaxed);
      worker->cv_drained.wait(lock, [&] {
        return worker->completed.load(std::memory_order_acquire) >= target;
      });
    }
  }
}

Status ConcurrentShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  return SubmitTracked(Request::Insert(id, size))->Wait();
}

Status ConcurrentShardedReallocator::Delete(ObjectId id) {
  return SubmitTracked(Request::Delete(id))->Wait();
}

std::uint64_t ConcurrentShardedReallocator::reserved_footprint() const {
  return MergeShardCounters(counters_).reserved_footprint;
}

std::uint64_t ConcurrentShardedReallocator::volume() const {
  return MergeShardCounters(counters_).volume;
}

void ConcurrentShardedReallocator::Quiesce() {
  Flush();
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    Item item;
    item.kind = OpKind::kQuiesce;
    item.shard = i;
    SubmitMarker(std::move(item));
  }
  Flush();
}

void ConcurrentShardedReallocator::CheckpointAll() {
  Flush();
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    if (shards_[i].manager == nullptr) continue;
    Item item;
    item.kind = OpKind::kCheckpoint;
    item.shard = i;
    SubmitMarker(std::move(item));
  }
  Flush();
}

ShardStats ConcurrentShardedReallocator::Stats() {
  // Each shard is snapshotted *on its owning worker* by a queued marker
  // op: the shard's FIFO puts the marker behind every op submitted before
  // this call, whichever entry point submitted it,
  // and only the owner ever touches the shard's mutable state, so the
  // read is race-free even while other producers keep submitting (their
  // later ops simply land behind the marker).
  std::vector<ShardStats::PerShard> per_shard(shard_count());
  std::vector<std::shared_ptr<OpToken>> tokens;
  tokens.reserve(shard_count());
  std::vector<std::uint64_t> max_end(shard_count(), 0);
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    Item item;
    item.kind = OpKind::kSnapshot;
    item.shard = i;
    item.snapshot_out = &per_shard[i];
    item.max_end_out = &max_end[i];
    item.token = std::make_shared<OpToken>();
    tokens.push_back(item.token);
    SubmitMarker(std::move(item));
  }
  for (const auto& token : tokens) token->Wait();

  ShardStats stats;
  stats.shards.reserve(shard_count());
  {
    std::lock_guard<std::mutex> drop_lock(drop_mu_);
    for (std::uint32_t i = 0; i < shard_count(); ++i) {
      per_shard[i].dropped_ops = dropped_ops_[i];
      stats.dropped_ops += dropped_ops_[i];
    }
    stats.last_drop_status = last_drop_status_;
  }
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    const ShardStats::PerShard& per = per_shard[i];
    stats.volume += per.volume;
    stats.sum_reserved_footprint += per.reserved_footprint;
    stats.sum_subrange_footprint += per.space_footprint;
    stats.max_shard_end = std::max(stats.max_shard_end, per.space_footprint);
    // Private roots hold based (global) coordinates, so the max of their
    // footprints is the shared parent's literal footprint.
    stats.global_max_end = std::max(stats.global_max_end, max_end[i]);
    stats.migrations += per.migrations;
    stats.migrated_bytes += per.migrated_bytes;
    stats.log_syncs += per.log_syncs;
    stats.log_compactions += per.log_compactions;
    stats.sync_wall_seconds += per.sync_wall_seconds;
    stats.max_sync_stall_seconds =
        std::max(stats.max_sync_stall_seconds, per.max_sync_stall_seconds);
    stats.latency_total.MergeFrom(per.latency_total);
    stats.latency_queue_wait.MergeFrom(per.latency_queue_wait);
    stats.latency_service.MergeFrom(per.latency_service);
    stats.shards.push_back(per);
  }
  return stats;
}

void ConcurrentShardedReallocator::AddShardListener(std::uint32_t index,
                                                    SpaceListener* listener) {
  COSR_CHECK_MSG(requests_submitted_.load(std::memory_order_relaxed) == 0,
                 "AddShardListener must run before the first Insert/Delete "
                 "submission");
  COSR_CHECK_LT(index, shard_count());
  shards_[index].space->AddListener(listener);
}

std::uint32_t ConcurrentShardedReallocator::RouteInsertLocked(
    ObjectId id, std::uint64_t size) const {
  if (!predicted_volume_.empty()) {
    // Least-loaded: lowest predicted volume wins (lowest index breaking
    // ties). Predicted — not the execution-side frontier gauge — so the
    // decision is a pure function of the submission history, reproducible
    // regardless of worker timing.
    return LeastLoadedShard(predicted_volume_);
  }
  return shard_for(id, size);
}

void ConcurrentShardedReallocator::MaybeRebalance(Worker& worker) {
  // Plan over the relaxed footprint gauges: exact for this worker's own
  // shards (it wrote them), at-most-one-op stale for the rest — fine for
  // a heuristic that re-runs every check_interval cycles.
  std::vector<ShardLoad> loads(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    loads[i].footprint =
        counters_[i].reserved_footprint.load(std::memory_order_relaxed);
    const std::uint64_t ops =
        counters_[i].ops.load(std::memory_order_relaxed);
    loads[i].ops = ops - worker.last_ops[i];
    worker.last_ops[i] = ops;
  }
  const RebalancePlan plan = PlanRebalance(loads, options_.rebalance_options);
  if (!plan.has_move) return;
  // Only the hot shard's owner drains it: the source-side deletes touch
  // the shard's inner state, which belongs to exactly one worker.
  if (std::find(worker.owned_shards.begin(), worker.owned_shards.end(),
                plan.hot) == worker.owned_shards.end()) {
    return;
  }
  Shard& hot = shards_[plan.hot];
  // A source that would defer the physical remove (deamortized mid-flush)
  // would leave the object placed on its private root while the
  // destination re-places the same id — and would journal the remove
  // after the destination's place, breaking the remove-before-place
  // ordering the crash-consistency argument leans on. Wait it out.
  if (!hot.inner->DeletesDetachImmediately()) return;
  // The snapshot reads the hot shard's applied state — safe lock-free
  // because this thread is the only one that ever applies ops to it.
  const std::vector<std::pair<ObjectId, Extent>> victims =
      SelectRebalanceVictims(hot.view->Snapshot(), options_.rebalance_options,
                             hot.inner->reserved_footprint(),
                             loads[plan.cold].footprint,
                             plan.target_footprint);
  if (victims.empty()) return;

  std::lock_guard<std::mutex> lock(routing_mu_);
  // Safety gate: migrate only when the hot shard has no stamped-but-
  // unexecuted ops. Then the placement map and the applied state agree
  // for every id on the shard — in particular no victim has a pending
  // delete/reinsert that an out-of-band source delete would corrupt — and
  // holding routing_mu_ keeps it that way (every submission stamps under
  // this lock). stamped_requests_ is read under the lock; the executed-op
  // counter was written by this very thread, so its relaxed read is
  // exact. When the gate fails, the next scan simply retries.
  if (stamped_requests_[plan.hot] !=
      counters_[plan.hot].ops.load(std::memory_order_relaxed)) {
    return;
  }
  std::vector<Item> arrivals;
  for (const std::pair<ObjectId, Extent>& victim : victims) {
    const ObjectId id = victim.first;
    const std::uint64_t size = victim.second.length;
    // Re-checked per victim: the previous victim's delete may itself have
    // started a deferred flush.
    if (!hot.inner->DeletesDetachImmediately()) break;
    // Source side, executed inline on the owner: the remove journals on
    // the hot shard's durability log like any other delete.
    COSR_CHECK_OK(hot.inner->Delete(id));
    counters_[plan.hot].RecordMigrateOut(size, hot.inner->volume(),
                                         hot.inner->reserved_footprint());
    placement_.Reassign(id, plan.hot, plan.cold);
    if (!predicted_volume_.empty()) {
      predicted_volume_[plan.hot] -= size;
      predicted_volume_[plan.cold] += size;
    }
    Item item;
    item.kind = OpKind::kMigrateIn;
    item.shard = plan.cold;
    item.id = id;
    item.size = size;
    arrivals.push_back(std::move(item));
  }
  if (arrivals.empty()) return;
  // Destination side: one batch of kMigrateIn ops on the cold shard's
  // queue — capacity-exempt (a worker must never park on a producer-side
  // backpressure wait), but ordered before any later-submitted op for
  // these ids, because such an op can only be routed under the
  // routing_mu_ we hold and lands behind us in the same FIFO. Lock order
  // routing_mu_ -> worker.mu matches the submit path, and the push never
  // blocks, so two workers rebalancing toward each other cannot deadlock.
  WorkerOf(plan.cold).submitted.fetch_add(arrivals.size(),
                                          std::memory_order_relaxed);
  Push(plan.cold, std::move(arrivals));
}

void ConcurrentShardedReallocator::WorkerLoop(Worker& worker) {
  const auto pending = [&] {
    for (std::uint32_t s : worker.owned_shards) {
      if (!shards_[s].remote->empty()) return true;
    }
    return false;
  };
  const auto is_request = [](const Item& item) {
    return item.kind == OpKind::kInsert || item.kind == OpKind::kDelete;
  };
  for (;;) {
    bool stopping = false;
    // Spin before parking: work that lands within the window is taken
    // without a wake-up. The predicate is re-checked under the lock below,
    // so Push's empty-transition notify still covers the park.
    SpinUntil(pending);
    {
      std::unique_lock<std::mutex> lock(worker.mu);
      worker.cv_ready.wait(lock, [&] { return pending() || worker.stop; });
      // Stop only once every owned shard's queue is drained.
      if (!pending()) break;
      stopping = worker.stop;
    }
    // Take each owned shard's whole list in one acquire-exchange, then
    // execute node-by-node in arrival order. Only this thread ever takes,
    // so no other synchronization.
    std::uint64_t executed = 0;
    std::uint64_t requests = 0;
    for (std::uint32_t s : worker.owned_shards) {
      auto* node = shards_[s].remote->TakeAll();
      while (node != nullptr) {
        // Counted before executing, so a snapshot marker later in the
        // FIFO sees every earlier batch. Marker and migration nodes carry
        // no requests and do not count.
        const std::uint64_t node_requests = static_cast<std::uint64_t>(
            std::count_if(node->value.begin(), node->value.end(), is_request));
        if (node_requests > 0) counters_[s].RecordRemoteBatch(node_requests);
        requests += node_requests;
        // One clock read per item, not two: each op's end timestamp is
        // the next op's start (the worker runs them back to back).
        std::uint64_t now = MonotonicNanos();
        for (const Item& item : node->value) now = ExecuteTimed(item, now);
        executed += node->value.size();
        auto* next = node->next;
        delete node;
        node = next;
      }
    }
    // Background rebalancing rides the drain cadence: a scan every
    // check_interval cycles that executed requests (a cycle of markers or
    // migrations never starts one), skipped once shutdown has begun (a
    // migration must never land in a queue whose worker already exited).
    if (options_.rebalance && !stopping && requests > 0 &&
        ++worker.drain_cycles >= options_.rebalance_options.check_interval) {
      worker.drain_cycles = 0;
      MaybeRebalance(worker);
    }
    // Completions publish after the scan, so a flusher that sees them also
    // sees the scan's effects and its migration pushes (see Flush). The
    // release pairs with Flush's acquire: once a flusher observes the
    // count, every effect of the cycle is visible to it.
    worker.completed.fetch_add(executed, std::memory_order_release);
    {
      // Notify under the lock so a flusher can never check its predicate
      // between our increment and our notify and then sleep forever.
      std::lock_guard<std::mutex> lock(worker.mu);
    }
    worker.cv_drained.notify_all();
    // Completions also free in-flight room for waiting producers.
    worker.cv_space.notify_all();
  }
}

void ConcurrentShardedReallocator::ExecuteItem(const Item& item) {
  Shard& shard = shards_[item.shard];
  ShardCounters& counters = counters_[item.shard];
  Status status;
  switch (item.kind) {
    case OpKind::kInsert:
      status = shard.inner->Insert(item.id, item.size);
      counters.RecordOp(/*is_insert=*/true, status.ok(),
                        shard.inner->volume(),
                        shard.inner->reserved_footprint());
      break;
    case OpKind::kDelete:
      status = shard.inner->Delete(item.id);
      counters.RecordOp(/*is_insert=*/false, status.ok(),
                        shard.inner->volume(),
                        shard.inner->reserved_footprint());
      break;
    case OpKind::kQuiesce:
      shard.inner->Quiesce();
      counters.RefreshGauges(shard.inner->volume(),
                             shard.inner->reserved_footprint());
      break;
    case OpKind::kCheckpoint:
      // On the owning worker, like every other touch of the shard's state.
      shard.view->Checkpoint();
      break;
    case OpKind::kMigrateIn:
      // The destination half of a migration; the source's owner already
      // deleted the object and repointed the map. The insert cannot fail:
      // Make rejects inner algorithms whose inserts can fail on a fresh
      // id whenever rebalancing is enabled. The place journals on this
      // shard's durability log like any other insert.
      COSR_CHECK_OK(shard.inner->Insert(item.id, item.size));
      counters.RecordMigrateIn(shard.inner->volume(),
                               shard.inner->reserved_footprint());
      break;
    case OpKind::kSnapshot: {
      const ShardCountersSnapshot snapshot = ReadShardCounters(counters);
      ShardStats::PerShard& per = *item.snapshot_out;
      per.base = shard.view->base();
      per.objects = shard.view->object_count();
      per.volume = shard.view->live_volume();
      per.reserved_footprint = shard.inner->reserved_footprint();
      per.space_footprint = shard.view->footprint();
      per.checkpoints =
          shard.manager != nullptr ? shard.manager->checkpoint_count() : 0;
      if (shard.log != nullptr) {
        // Owning worker reading its own shard's sink — single-writer, so
        // the sync/stall gauges are race-free here.
        const LogSink& sink = *shard.log->sink();
        per.log_syncs = sink.sync_count();
        per.log_compactions = shard.log->compactions();
        per.sync_wall_seconds = sink.sync_wall_seconds();
        per.max_sync_stall_seconds = sink.max_sync_stall_seconds();
      }
      per.ops = snapshot.ops;
      per.failed_ops = snapshot.failed_ops;
      per.peak_reserved_footprint = snapshot.peak_reserved_footprint;
      per.remote_batches = snapshot.remote_batches;
      per.batched_ops = snapshot.batched_ops;
      per.migrations = snapshot.migrations;
      per.migrated_bytes = snapshot.migrated_bytes;
      per.migrations_in = snapshot.migrations_in;
      // Snapshotting on the owning worker is what makes these cross-bucket
      // consistent with `ops` above: no tracked op can be mid-record here.
      per.latency_total = latency_[item.shard].total.Snapshot();
      per.latency_queue_wait = latency_[item.shard].queue_wait.Snapshot();
      per.latency_service = latency_[item.shard].service.Snapshot();
      *item.max_end_out = shard.space->footprint();
      break;
    }
  }
  if (item.token != nullptr) item.token->Complete(std::move(status));
}

std::uint64_t ConcurrentShardedReallocator::ExecuteTimed(
    const Item& item, std::uint64_t start_ns) {
  // Only client-visible ops (insert/delete) feed the latency histograms:
  // marker and migration items have no submitter waiting on them, and
  // excluding them keeps `latency count == ops` an exact identity.
  const bool tracked =
      item.kind == OpKind::kInsert || item.kind == OpKind::kDelete;
  ExecuteItem(item);
  if (!tracked) return MonotonicNanos();
  const std::uint64_t end_ns = MonotonicNanos();
  ShardLatencyRecorders& lat = latency_[item.shard];
  // queue_wait spans submit stamp -> execution start, so it includes any
  // backpressure stall the producer ate before the push, not just the
  // time the item sat in a queue.
  lat.queue_wait.Record(SaturatingElapsed(start_ns, item.submit_ns));
  lat.service.Record(SaturatingElapsed(end_ns, start_ns));
  lat.total.Record(SaturatingElapsed(end_ns, item.submit_ns));
  return end_ns;
}

}  // namespace cosr
