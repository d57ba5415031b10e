// EXP-CONCURRENT — thread-scaling and tail latency of the concurrent
// service facade: items/s of ConcurrentShardedReallocator at
// W ∈ {1, 2, 4, 8} worker threads over K = 8 shards, against the
// single-threaded ShardedReallocator facade on the same shard layout, plus
// an open-loop burst grid that ramps the offered rate past saturation.
//
// The shards' sub-problems are disjoint (private per-shard roots, views
// based at i * span), so worker threads share no mutable storage state and
// the only serialization is the hop through each shard's lock-free queue. Per-shard op streams are
// identical across modes, which makes the W=1 run op-for-op comparable to
// the single-threaded facade: same moves, same bytes, same per-shard
// footprints — that identity is this experiment's CI guard.
//
// Every cell also reports per-op wall-clock latency percentiles from the
// service layer's own histograms (ShardStats.latency_*): total
// (submit -> completion), queue-wait (submit -> execution start), and
// service (the inner reallocator call alone). The burst grid drives the
// facade open-loop — timed arrivals at a fraction of the measured
// closed-loop capacity, bounded queues, pure backpressure — and is where
// the deamortization story becomes a latency claim: the checkpointed
// (amortized) inner algorithm takes its rebuild spikes on the serving
// path, the deamortized one spreads them, and the service-time p999/p50
// ratio is the measurable difference.
//
// Writes BENCH_concurrent.json (run from the repo root to refresh the
// committed artifact; `hardware_threads` records the host, since thread
// scaling is only meaningful with >= W cores). --smoke shrinks the traces
// ~20x and turns the run into the CI gate: the exit code asserts the W=1
// concurrent mode matches the single-threaded facade's footprint/move/byte
// counts exactly, that every W=1 op (per-op and batched) travelled the
// remote queues, that every burst row's paper-unit counts match its W=4
// closed-loop calibration row exactly, that no op failed in any cell, and
// that every cell's latency accounting is exact (tracked-op histogram
// counts == operations).
//
// Usage: exp_concurrent [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cosr/common/check.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/metrics/latency_histogram.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/scenario.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kWorkerCounts[] = {1, 2, 4, 8};
// The batched closed-loop rows' SubmitMany slice: the batch size
// perfbench's concurrent-churn workload sends.
constexpr std::size_t kSubmitBatch = 64;
// The burst grid's fixed shape: the mid-grid worker count, a queue bound
// small enough for overload to bite within a smoke-size trace, and offered
// rates straddling the measured closed-loop capacity.
constexpr std::uint32_t kBurstWorkers = 4;
constexpr std::size_t kBurstQueueCapacity = 1024;
constexpr std::size_t kBurstBatch = 32;
constexpr double kBurstRatios[] = {0.5, 0.9, 1.2, 2.0};
// The algorithms whose latency distributions the burst grid contrasts:
// same structure, opposite tail behavior (amortized rebuilds vs spread).
const char* const kBurstAlgorithms[] = {"checkpointed", "deamortized"};

struct Row {
  std::string scenario;
  std::string algorithm;
  std::uint32_t workers = 0;  // 0 = single-threaded facade
  /// Concurrent rows only: per-op Submit (one remote-queue push per op,
  /// a batch of one) vs kSubmitBatch-op SubmitMany slices (one push per
  /// slice per shard). Both ride the same per-shard lock-free queues.
  bool batched = false;
  /// Open-loop burst rows: paced arrivals at offered_ratio x capacity.
  bool burst = false;
  double offered_ratio = 0;
  double offered_ops_per_sec = 0;  // the pacing target (burst rows only)
  double submit_seconds = 0;       // producer-side wall (burst rows only)
  std::uint64_t operations = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  std::uint64_t moves = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t bytes_placed = 0;
  std::uint64_t volume_final = 0;
  std::uint64_t sum_reserved_final = 0;
  std::uint64_t sum_peak_reserved = 0;
  std::uint64_t global_max_end = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t batched_ops = 0;  // ops that arrived via remote queues
                                  // (every op, on both paths)
  std::vector<std::uint64_t> per_shard_reserved;
  std::vector<std::uint64_t> per_shard_peak;
  /// Wall-clock latency of executed insert/delete ops, merged over shards.
  LatencyHistogram lat_total;
  LatencyHistogram lat_queue;
  LatencyHistogram lat_service;

  std::string Label() const {
    if (burst) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "burst %.1fx%s", offered_ratio,
                    batched ? " batched" : "");
      return buf;
    }
    if (workers == 0) return "facade/1-thread";
    return "W=" + std::to_string(workers) + (batched ? " batched" : "");
  }
};

void FillLatency(Row* row, const ShardStats& stats) {
  row->lat_total = stats.latency_total;
  row->lat_queue = stats.latency_queue_wait;
  row->lat_service = stats.latency_service;
}

/// The single-threaded facade baseline, driven with the same per-op gauge
/// sampling the concurrent workers do (only the routed shard is read), so
/// wall clocks and per-shard peaks compare like for like.
Row RunFacade(const Scenario& scenario, const std::string& algorithm,
              const CostBattery& battery) {
  AddressSpace parent;
  CostMeter meter(&battery);
  parent.AddListener(&meter);

  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ShardedReallocator::Options options;
  options.shard_count = kShards;
  std::unique_ptr<ShardedReallocator> facade;
  COSR_CHECK_OK(ShardedReallocator::Make(spec, options, &parent, &facade));

  std::vector<std::uint64_t> peak(kShards, 0);
  const auto start = Clock::now();
  for (const Request& request : scenario.trace.requests()) {
    std::uint32_t target;
    if (request.type == Request::Type::kInsert) {
      target = facade->shard_for(request.id, request.size);
      COSR_CHECK_OK(facade->Insert(request.id, request.size));
    } else {
      target = facade->shard_for(request.id, 0);
      COSR_CHECK_OK(facade->Delete(request.id));
    }
    const std::uint64_t reserved = facade->shard(target).reserved_footprint();
    if (reserved > peak[target]) peak[target] = reserved;
  }
  facade->Quiesce();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  Row row;
  row.scenario = scenario.name;
  row.algorithm = algorithm;
  row.workers = 0;
  row.operations = scenario.trace.size();
  row.wall_seconds = wall;
  row.ops_per_sec = static_cast<double>(row.operations) / wall;
  row.moves = meter.moves();
  row.bytes_moved = meter.bytes_moved();
  row.bytes_placed = meter.bytes_placed();
  const ShardStats stats = facade->Stats();
  row.volume_final = stats.volume;
  row.sum_reserved_final = stats.sum_reserved_footprint;
  row.global_max_end = stats.global_max_end;
  FillLatency(&row, stats);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    row.per_shard_reserved.push_back(stats.shards[s].reserved_footprint);
    row.per_shard_peak.push_back(peak[s]);
    row.sum_peak_reserved += peak[s];
  }
  parent.RemoveListener(&meter);
  return row;
}

Row RunConcurrent(const Scenario& scenario, const std::string& algorithm,
                  std::uint32_t workers, bool batched,
                  const CostBattery& battery) {
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = kShards;
  options.worker_threads = workers;
  std::unique_ptr<ConcurrentShardedReallocator> facade;
  COSR_CHECK_OK(ConcurrentShardedReallocator::Make(spec, options, &facade));

  // Per-shard meters, merged after the drain (the aggregation-safe
  // listener pattern: each fires on its shard's worker thread only).
  std::vector<std::unique_ptr<CostMeter>> meters;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    meters.push_back(std::make_unique<CostMeter>(&battery));
    facade->AddShardListener(s, meters[s].get());
  }

  const auto start = Clock::now();
  if (batched) {
    // The batched producer path: consecutive kSubmitBatch-op slices of
    // the trace go out as SubmitMany batches — one queue hop per slice per
    // shard instead of one per op.
    const std::vector<Request>& requests = scenario.trace.requests();
    for (std::size_t i = 0; i < requests.size(); i += kSubmitBatch) {
      const std::size_t n = std::min(kSubmitBatch, requests.size() - i);
      std::size_t accepted = 0;
      COSR_CHECK_OK(facade->SubmitMany(requests.data() + i, n, &accepted));
      COSR_CHECK_EQ(accepted, n);
    }
  } else {
    for (const Request& request : scenario.trace.requests()) {
      COSR_CHECK_OK(facade->Submit(request));
    }
  }
  facade->Quiesce();  // drains, then retires deferred work on the workers
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  Row row;
  row.scenario = scenario.name;
  row.algorithm = algorithm;
  row.workers = workers;
  row.batched = batched;
  row.operations = scenario.trace.size();
  row.wall_seconds = wall;
  row.ops_per_sec = static_cast<double>(row.operations) / wall;
  CostMeter merged(&battery);
  for (const auto& meter : meters) merged.MergeFrom(*meter);
  row.moves = merged.moves();
  row.bytes_moved = merged.bytes_moved();
  row.bytes_placed = merged.bytes_placed();
  const ShardStats stats = facade->Stats();
  row.volume_final = stats.volume;
  row.sum_reserved_final = stats.sum_reserved_footprint;
  row.global_max_end = stats.global_max_end;
  FillLatency(&row, stats);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    row.per_shard_reserved.push_back(stats.shards[s].reserved_footprint);
    row.per_shard_peak.push_back(stats.shards[s].peak_reserved_footprint);
    row.sum_peak_reserved += stats.shards[s].peak_reserved_footprint;
    row.failed_ops += stats.shards[s].failed_ops;
    row.batched_ops += stats.shards[s].batched_ops;
  }
  return row;
}

/// One open-loop burst cell: arrivals paced at `offered_ratio` x the
/// measured closed-loop capacity against bounded queues. The producer never
/// waits for completions, only for room: past saturation the queues fill
/// and the producer blocks until a drain frees room, then catches up with
/// the schedule. Every op executes, and with one producer and hash routing
/// each shard sees the same op stream as in the closed-loop run.
Row RunBurst(const Scenario& scenario, const std::string& algorithm,
             bool batched, double offered_ratio, double capacity_ops_per_sec,
             const CostBattery& battery) {
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = kShards;
  options.worker_threads = kBurstWorkers;
  options.queue_capacity = kBurstQueueCapacity;
  std::unique_ptr<ConcurrentShardedReallocator> facade;
  COSR_CHECK_OK(ConcurrentShardedReallocator::Make(spec, options, &facade));

  std::vector<std::unique_ptr<CostMeter>> meters;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    meters.push_back(std::make_unique<CostMeter>(&battery));
    facade->AddShardListener(s, meters[s].get());
  }

  const double offered = offered_ratio * capacity_ops_per_sec;
  const double interval_ns = 1e9 / offered;
  const auto& requests = scenario.trace.requests();
  const auto pace = [&](std::size_t i, const Clock::time_point& start) {
    // Deadlines are absolute (start + i * interval), so a late submission
    // doesn't stretch the whole schedule: an open-loop producer falls
    // behind and catches up, it does not silently lower the offered rate.
    const auto deadline =
        start + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(interval_ns * i));
    while (Clock::now() < deadline) std::this_thread::yield();
  };

  const auto start = Clock::now();
  if (batched) {
    for (std::size_t i = 0; i < requests.size(); i += kBurstBatch) {
      const std::size_t n = std::min(kBurstBatch, requests.size() - i);
      // A batched producer releases each chunk when its LAST op's
      // arrival time comes due — the batch is the submission event.
      pace(i + n - 1, start);
      COSR_CHECK_OK(facade->SubmitMany(requests.data() + i, n));
    }
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      pace(i, start);
      COSR_CHECK_OK(facade->Submit(requests[i]));
    }
  }
  const double submit_wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  facade->Quiesce();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  Row row;
  row.scenario = scenario.name;
  row.algorithm = algorithm;
  row.workers = kBurstWorkers;
  row.batched = batched;
  row.burst = true;
  row.offered_ratio = offered_ratio;
  row.offered_ops_per_sec = offered;
  row.submit_seconds = submit_wall;
  row.operations = requests.size();
  row.wall_seconds = wall;
  CostMeter merged(&battery);
  for (const auto& meter : meters) merged.MergeFrom(*meter);
  row.moves = merged.moves();
  row.bytes_moved = merged.bytes_moved();
  row.bytes_placed = merged.bytes_placed();
  const ShardStats stats = facade->Stats();
  row.volume_final = stats.volume;
  row.sum_reserved_final = stats.sum_reserved_footprint;
  row.global_max_end = stats.global_max_end;
  FillLatency(&row, stats);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    row.per_shard_reserved.push_back(stats.shards[s].reserved_footprint);
    row.per_shard_peak.push_back(stats.shards[s].peak_reserved_footprint);
    row.sum_peak_reserved += stats.shards[s].peak_reserved_footprint;
    row.failed_ops += stats.shards[s].failed_ops;
    row.batched_ops += stats.shards[s].batched_ops;
  }
  // Achieved throughput = ops over the full wall (submission window plus
  // drain) — the number that stops tracking the offered rate at the
  // collapse knee.
  row.ops_per_sec = static_cast<double>(row.operations) / wall;
  return row;
}

const Row* Find(const std::vector<Row>& rows, const std::string& scenario,
                const std::string& algorithm, std::uint32_t workers,
                bool batched = false) {
  for (const Row& row : rows) {
    if (row.scenario == scenario && row.algorithm == algorithm &&
        row.workers == workers && row.batched == batched && !row.burst) {
      return &row;
    }
  }
  return nullptr;
}

void WriteJson(const std::vector<Row>& rows, bool smoke) {
  std::FILE* json = std::fopen("BENCH_concurrent.json", "w");
  if (json == nullptr) {
    std::printf("cannot open BENCH_concurrent.json for writing\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"schema_version\": 3,\n  \"smoke\": %s,\n"
               "  \"shard_count\": %u,\n  \"hardware_threads\": %u,\n"
               "  \"burst_workers\": %u,\n  \"burst_queue_capacity\": %zu,\n",
               smoke ? "true" : "false", kShards,
               std::thread::hardware_concurrency(), kBurstWorkers,
               kBurstQueueCapacity);
  std::fprintf(json, "  \"rows\": [\n");
  // On a single-core host every wall-clock ratio is scheduler noise, so
  // the speedup column is recorded as 0.0 (the same "not applicable"
  // sentinel the facade rows use) rather than shipping numbers that look
  // like scaling measurements. hardware_threads tells readers which case
  // the artifact is.
  const bool scaling_meaningful = std::thread::hardware_concurrency() > 1;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    // Speedup compares against the same submit style's W=1 row, so the
    // batched column measures thread scaling, not batching itself (the
    // batched-vs-per-op ratio is the two paths' ops_per_sec at equal W).
    const Row* w1 = Find(rows, row.scenario, row.algorithm, 1, row.batched);
    const double speedup_vs_w1 =
        (scaling_meaningful && !row.burst && row.workers != 0 &&
         w1 != nullptr && w1->ops_per_sec > 0)
            ? row.ops_per_sec / w1->ops_per_sec
            : 0.0;
    const char* mode =
        row.burst ? (row.batched ? "burst-batched" : "burst")
                  : (row.workers == 0
                         ? "facade"
                         : (row.batched ? "concurrent-batched" : "concurrent"));
    std::fprintf(
        json,
        "    {\"scenario\": \"%s\", \"algorithm\": \"%s\", "
        "\"mode\": \"%s\", \"submit\": \"%s\", \"workers\": %u, "
        "\"shards\": %u, "
        "\"operations\": %llu, \"wall_seconds\": %.6f, "
        "\"ops_per_sec\": %.0f, \"speedup_vs_w1\": %.3f, "
        "\"moves\": %llu, \"bytes_moved\": %llu, \"bytes_placed\": %llu, "
        "\"volume_final\": %llu, \"sum_reserved_final\": %llu, "
        "\"sum_peak_reserved\": %llu, \"global_max_end\": %llu, "
        "\"failed_ops\": %llu, \"batched_ops\": %llu, "
        "\"offered_ratio\": %.2f, \"offered_ops_per_sec\": %.0f, "
        "\"submit_seconds\": %.6f, \"dropped_ops\": %llu, "
        "\"lat_ops\": %llu, "
        "\"lat_total_p50_ns\": %llu, \"lat_total_p90_ns\": %llu, "
        "\"lat_total_p99_ns\": %llu, \"lat_total_p999_ns\": %llu, "
        "\"lat_total_max_ns\": %llu, \"lat_total_mean_ns\": %.0f, "
        "\"lat_queue_p50_ns\": %llu, \"lat_queue_p99_ns\": %llu, "
        "\"lat_queue_p999_ns\": %llu, "
        "\"lat_service_p50_ns\": %llu, \"lat_service_p90_ns\": %llu, "
        "\"lat_service_p99_ns\": %llu, \"lat_service_p999_ns\": %llu, "
        "\"lat_service_max_ns\": %llu}%s\n",
        row.scenario.c_str(), row.algorithm.c_str(), mode,
        row.workers == 0 ? "sync" : (row.batched ? "batched" : "per-op"),
        row.workers == 0 ? 1 : row.workers, kShards,
        static_cast<unsigned long long>(row.operations), row.wall_seconds,
        row.ops_per_sec, speedup_vs_w1,
        static_cast<unsigned long long>(row.moves),
        static_cast<unsigned long long>(row.bytes_moved),
        static_cast<unsigned long long>(row.bytes_placed),
        static_cast<unsigned long long>(row.volume_final),
        static_cast<unsigned long long>(row.sum_reserved_final),
        static_cast<unsigned long long>(row.sum_peak_reserved),
        static_cast<unsigned long long>(row.global_max_end),
        static_cast<unsigned long long>(row.failed_ops),
        static_cast<unsigned long long>(row.batched_ops), row.offered_ratio,
        row.offered_ops_per_sec, row.submit_seconds,
        // dropped_ops: always 0 (nothing drops), kept for the schema.
        0ull,
        static_cast<unsigned long long>(row.lat_total.count),
        static_cast<unsigned long long>(row.lat_total.Percentile(0.50)),
        static_cast<unsigned long long>(row.lat_total.Percentile(0.90)),
        static_cast<unsigned long long>(row.lat_total.Percentile(0.99)),
        static_cast<unsigned long long>(row.lat_total.Percentile(0.999)),
        static_cast<unsigned long long>(row.lat_total.max()),
        row.lat_total.mean(),
        static_cast<unsigned long long>(row.lat_queue.Percentile(0.50)),
        static_cast<unsigned long long>(row.lat_queue.Percentile(0.99)),
        static_cast<unsigned long long>(row.lat_queue.Percentile(0.999)),
        static_cast<unsigned long long>(row.lat_service.Percentile(0.50)),
        static_cast<unsigned long long>(row.lat_service.Percentile(0.90)),
        static_cast<unsigned long long>(row.lat_service.Percentile(0.99)),
        static_cast<unsigned long long>(row.lat_service.Percentile(0.999)),
        static_cast<unsigned long long>(row.lat_service.max()),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_concurrent.json (%zu rows)\n", rows.size());
}

/// The paper-unit identity: `row` ran the same per-shard op streams as
/// `reference`, so every footprint, move and byte count must match exactly.
bool CheckIdentity(const Row& reference, const Row& row) {
  bool ok = true;
  ok &= row.moves == reference.moves;
  ok &= row.bytes_moved == reference.bytes_moved;
  ok &= row.bytes_placed == reference.bytes_placed;
  ok &= row.volume_final == reference.volume_final;
  ok &= row.sum_reserved_final == reference.sum_reserved_final;
  ok &= row.sum_peak_reserved == reference.sum_peak_reserved;
  ok &= row.global_max_end == reference.global_max_end;
  ok &= row.per_shard_reserved == reference.per_shard_reserved;
  ok &= row.per_shard_peak == reference.per_shard_peak;
  if (!ok) {
    std::printf("  IDENTITY BROKEN: %s/%s %s vs %s\n", row.scenario.c_str(),
                row.algorithm.c_str(), row.Label().c_str(),
                reference.Label().c_str());
  }
  return ok;
}

/// The latency-accounting identity, every cell: each executed insert/delete
/// lands in all three histograms exactly once (total/service everywhere;
/// queue-wait only where a queue exists), and the split percentiles are
/// mutually consistent.
bool CheckLatencyAccounting(const Row& row) {
  bool ok = true;
  ok &= row.lat_total.count == row.operations;
  ok &= row.lat_service.count == row.operations;
  // The sync facade has no queue: its queue-wait histogram must be empty.
  ok &= row.lat_queue.count == (row.workers == 0 ? 0 : row.operations);
  ok &= row.lat_total.Percentile(0.999) >= row.lat_total.Percentile(0.5);
  ok &= row.lat_total.max() >= row.lat_service.Percentile(0.5);
  if (!ok) {
    std::printf(
        "  LATENCY ACCOUNTING BROKEN: %s/%s %s — operations %llu, counts "
        "total %llu queue %llu service %llu\n",
        row.scenario.c_str(), row.algorithm.c_str(), row.Label().c_str(),
        static_cast<unsigned long long>(row.operations),
        static_cast<unsigned long long>(row.lat_total.count),
        static_cast<unsigned long long>(row.lat_queue.count),
        static_cast<unsigned long long>(row.lat_service.count));
  }
  return ok;
}

}  // namespace
}  // namespace cosr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  cosr::bench::Banner(
      "EXP-CONCURRENT — items/s and tail latency vs worker threads over "
      "K=8 disjoint shards",
      "per-shard sub-problems are disjoint, so K reallocators parallelize "
      "with no cross-shard locking; 1-thread mode is op-for-op identical "
      "to the single-threaded facade; the burst grid ramps an open-loop "
      "offered rate past saturation");

  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware < 4) {
    std::printf(
        "note: only %u hardware thread(s) — wall-clock scaling numbers on "
        "this host measure queue overhead, not parallelism\n",
        hardware);
  }

  const cosr::ScenarioBatteryOptions options =
      smoke ? cosr::ScenarioBatteryOptions::Smoke()
            : cosr::ScenarioBatteryOptions();
  std::vector<cosr::Scenario> scenarios;
  for (cosr::Scenario& scenario : cosr::MakeScenarioBattery(options)) {
    if (scenario.name == "steady-churn" || scenario.name == "zipf-churn" ||
        scenario.name == "database-block-replay") {
      scenarios.push_back(std::move(scenario));
    }
  }
  COSR_CHECK_EQ(scenarios.size(), 3u);
  const cosr::CostBattery battery = cosr::MakeDefaultBattery();
  const std::vector<std::string> algorithms = {"cost-oblivious", "first-fit"};

  std::vector<cosr::Row> rows;
  bool ok = true;
  for (const cosr::Scenario& scenario : scenarios) {
    std::printf("\n-- %s (%zu requests) --\n", scenario.name.c_str(),
                scenario.trace.size());
    cosr::bench::Table table({"algorithm", "mode", "kops/s", "vs W=1",
                              "p50 us", "p99 us", "p999 us", "failed"});
    for (const std::string& algorithm : algorithms) {
      rows.push_back(cosr::RunFacade(scenario, algorithm, battery));
      for (const bool batched : {false, true}) {
        for (const std::uint32_t workers : cosr::kWorkerCounts) {
          rows.push_back(cosr::RunConcurrent(scenario, algorithm, workers,
                                             batched, battery));
        }
      }
      const std::size_t cell_rows = 1 + 2 * std::size(cosr::kWorkerCounts);
      for (const cosr::Row* row = &rows[rows.size() - cell_rows];
           row <= &rows.back();
           ++row) {
        const cosr::Row* w1 =
            cosr::Find(rows, scenario.name, algorithm, 1, row->batched);
        const double vs_w1 = (row->workers != 0 && w1 != nullptr)
                                 ? row->ops_per_sec / w1->ops_per_sec
                                 : 0.0;
        table.AddRow(
            {algorithm, row->Label(),
             cosr::bench::Fmt(row->ops_per_sec / 1000.0, 0),
             row->workers == 0 ? "-" : cosr::bench::Fmt(vs_w1, 2),
             cosr::bench::Fmt(row->lat_total.Percentile(0.5) / 1000.0, 1),
             cosr::bench::Fmt(row->lat_total.Percentile(0.99) / 1000.0, 1),
             cosr::bench::Fmt(row->lat_total.Percentile(0.999) / 1000.0, 1),
             std::to_string(row->failed_ops)});
        ok &= row->failed_ops == 0;
      }
    }
    table.Print();
  }

  // The open-loop burst grid: steady-churn only (the trace whose offered
  // load is stationary), checkpointed vs deamortized inner algorithms,
  // both submit styles. Capacity is calibrated per (algorithm, style) by a
  // closed-loop run at the same W — those calibration rows join the
  // artifact as ordinary concurrent cells. With one producer, hash routing
  // and pure backpressure, every shard of a burst row executes the same op
  // stream as in its calibration row, so their paper-unit counts must
  // match exactly whatever the offered rate.
  const cosr::Scenario& burst_scenario = scenarios.front();
  COSR_CHECK_MSG(burst_scenario.name == "steady-churn",
                 "burst grid expects steady-churn first in the battery");
  std::printf("\n-- burst: open-loop %s, W=%u, queue=%zu --\n",
              burst_scenario.name.c_str(), cosr::kBurstWorkers,
              cosr::kBurstQueueCapacity);
  cosr::bench::Table burst_table({"algorithm", "mode", "offered-k/s",
                                  "achieved-k/s", "p50 us", "p999 us",
                                  "svc p999/p50", "identity"});
  for (const char* algorithm : cosr::kBurstAlgorithms) {
    for (const bool batched : {false, true}) {
      rows.push_back(cosr::RunConcurrent(burst_scenario, algorithm,
                                         cosr::kBurstWorkers, batched,
                                         battery));
      const std::size_t calibration = rows.size() - 1;
      const double capacity = rows.back().ops_per_sec;
      for (const double ratio : cosr::kBurstRatios) {
        rows.push_back(cosr::RunBurst(burst_scenario, algorithm, batched,
                                      ratio, capacity, battery));
        const cosr::Row& row = rows.back();
        const bool identity = cosr::CheckIdentity(rows[calibration], row);
        ok &= identity && rows[calibration].failed_ops == 0 &&
              row.failed_ops == 0;
        const double svc_p50 =
            static_cast<double>(row.lat_service.Percentile(0.5));
        const double svc_tail_ratio =
            svc_p50 > 0
                ? static_cast<double>(row.lat_service.Percentile(0.999)) /
                      svc_p50
                : 0.0;
        burst_table.AddRow(
            {algorithm, row.Label(),
             cosr::bench::Fmt(row.offered_ops_per_sec / 1000.0, 0),
             cosr::bench::Fmt(row.ops_per_sec / 1000.0, 0),
             cosr::bench::Fmt(row.lat_total.Percentile(0.5) / 1000.0, 1),
             cosr::bench::Fmt(row.lat_total.Percentile(0.999) / 1000.0, 1),
             cosr::bench::Fmt(svc_tail_ratio, 1),
             identity ? "ok" : "BROKEN"});
      }
    }
  }
  burst_table.Print();

  // The CI guard: W=1 concurrent mode — per-op and batched — is
  // op-for-op identical to the single-threaded facade, per scenario and
  // algorithm. A single producer's per-shard op streams are order-
  // preserved through the remote queues, so batching may change nothing.
  std::printf("\nW=1 identity (per-op and batched) and W=4 scaling:\n");
  for (const cosr::Scenario& scenario : scenarios) {
    for (const std::string& algorithm : algorithms) {
      const cosr::Row* facade = cosr::Find(rows, scenario.name, algorithm, 0);
      const cosr::Row* w1 = cosr::Find(rows, scenario.name, algorithm, 1);
      const cosr::Row* w1_batched =
          cosr::Find(rows, scenario.name, algorithm, 1, /*batched=*/true);
      const cosr::Row* w4 = cosr::Find(rows, scenario.name, algorithm, 4);
      if (facade == nullptr || w1 == nullptr || w1_batched == nullptr ||
          w4 == nullptr) {
        ok = false;
        continue;
      }
      const bool identity = cosr::CheckIdentity(*facade, *w1);
      const bool batched_identity = cosr::CheckIdentity(*facade, *w1_batched);
      // Both W=1 rows must have routed every op through the remote
      // queues: there is no other path.
      bool all_remote = true;
      for (const cosr::Row* row : {w1, w1_batched}) {
        if (row->batched_ops == row->operations) continue;
        all_remote = false;
        std::printf("  REMOTE QUEUES BYPASSED: %s/%s %s (%llu of %llu ops "
                    "remote)\n",
                    scenario.name.c_str(), algorithm.c_str(),
                    row->Label().c_str(),
                    static_cast<unsigned long long>(row->batched_ops),
                    static_cast<unsigned long long>(row->operations));
      }
      ok &= identity && batched_identity && all_remote;
      std::printf(
          "  %-22s %-15s identity %s, batched identity %s, "
          "batched/per-op x%.2f, W4/W1 x%.2f\n",
          scenario.name.c_str(), algorithm.c_str(),
          identity ? "ok" : "BROKEN", batched_identity ? "ok" : "BROKEN",
          w1_batched->ops_per_sec / w1->ops_per_sec,
          w4->ops_per_sec / w1->ops_per_sec);
    }
  }

  // Latency accounting must be exact in EVERY cell, burst included: every
  // op lands in all three histograms once (queue-wait empty on the sync
  // facade).
  for (const cosr::Row& row : rows) ok &= cosr::CheckLatencyAccounting(row);

  cosr::WriteJson(rows, smoke);
  cosr::bench::Verdict(
      ok,
      "all cells ran with zero failed ops; W=1 concurrent mode — per-op and "
      "batched — matches the single-threaded facade's footprint/move/byte "
      "counts exactly with every op through the remote queues; every burst "
      "row matches its W=4 calibration row exactly; latency histogram "
      "counts match operations in every cell");
  return ok ? 0 : 1;
}
