// The three benchmark workloads. Each run generates its requests from the
// seed, sets the stack up (timed, several times), then measures:
//   untraced: a fixed-length window with per-request clock reads and
//             written-bytes accounting (latency percentiles and the
//             paper-unit metrics, which repeat exactly for a seed), then a
//             time-bounded throughput pass with no per-request
//             instrumentation, then the output checks;
//   traced:   the same requests through an untraced stack, a traced stack
//             (TimingSpace parent, timed listeners and checkpoint logs) and
//             the bare-algorithm / free-index rungs, for per-layer metrics.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cosr/alloc/binned_free_index.h"
#include "cosr/common/random.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/routing.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/workload_generator.h"
#include "measure.h"
#include "timing_space.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------- utilities

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Resident set size of this process (/proc/self/statm), in bytes.
std::uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// RSS after handing freed heap pages back to the kernel, so a following
/// set-up's growth is not hidden by pages the input generation left behind.
std::uint64_t BaselineRssBytes() {
  malloc_trim(0);
  return RssBytes();
}

/// Bytes this process has handed to write(2) and friends so far
/// (/proc/self/io "wchar").
std::uint64_t WriteSyscallBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  throw std::runtime_error("cannot read wchar from /proc/self/io");
}

/// A per-run scratch directory under the run's workdir, removed with
/// everything in it when the object goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path_ = buffer.data();
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// A fresh, empty subdirectory.
  std::string Subdir(const std::string& name) const {
    const std::string dir = path_ + "/" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    std::filesystem::create_directories(dir);
    return dir;
  }

 private:
  std::string path_;
};

/// Median set-up time: the set-ups of the measured stacks plus repeats on
/// throwaway stacks, at least three and up to fifteen while the total
/// stays under a second.
double MedianSetupSeconds(std::vector<double> times,
                          const std::function<double()>& again) {
  double total = 0.0;
  for (double t : times) total += t;
  while (times.size() < 3 || (total < 1.0 && times.size() < 15)) {
    const double t = again();
    times.push_back(t);
    total += t;
  }
  return Median(times);
}

// ---------------------------------------------------------------- inputs

/// One request in 8 bytes; size 0 marks a delete.
struct Op {
  std::uint32_t id = 0;
  std::uint32_t size = 0;
  bool is_insert() const { return size != 0; }
};

/// A workload's generated requests: ops[0, setup_end) is the set-up (the
/// fill, timed as setup_s); the measured phases run from setup_end on.
struct Inputs {
  std::vector<Op> ops;
  std::size_t setup_end = 0;
  /// durable-dbblocks: kLookupsPerWrite live ids to look up after each
  /// request from setup_end on.
  std::vector<std::uint32_t> lookups;
  std::uint32_t max_id = 0;
};

constexpr std::size_t kLookupsPerWrite = 3;

/// Ids freed by deletes are handed out again, oldest first, once this many
/// other freed ids are waiting. The generators give every insert a fresh
/// id, so without reuse the dense slot tables would grow with run length
/// and a run's rate would depend on how long it ran. The lag keeps a
/// recycled id clear of deferred deletes still draining in the
/// deamortized flush.
constexpr std::size_t kIdReuseLag = 65536;

/// Packs generated traces into Inputs::ops, recycling ids (see
/// kIdReuseLag). Several traces can be appended back to back; DeleteLive
/// retires what the last one left live before the next one starts.
class Packer {
 public:
  explicit Packer(Inputs* in) : in_(in) {}

  void Append(const cosr::Trace& trace) {
    cosr::ObjectId max_trace_id = 0;
    for (const cosr::Request& r : trace.requests()) {
      max_trace_id = std::max(max_trace_id, r.id);
    }
    remap_.assign(max_trace_id + 1, 0);
    in_->ops.reserve(in_->ops.size() + trace.size());
    for (const cosr::Request& r : trace.requests()) {
      if (r.type == cosr::Request::Type::kInsert) {
        if (r.size == 0 || r.size > std::numeric_limits<std::uint32_t>::max()) {
          throw std::runtime_error("request does not fit the packed form");
        }
        remap_[r.id] = NextId();
        in_->ops.push_back(Op{remap_[r.id], static_cast<std::uint32_t>(r.size)});
      } else {
        Retire(r.id);
      }
    }
  }

  /// Appends a delete of every object the last appended trace left live.
  void DeleteLive() {
    for (cosr::ObjectId id = 0; id < remap_.size(); ++id) {
      if (remap_[id] != 0) Retire(id);
    }
  }

 private:
  std::uint32_t NextId() {
    if (freed_.size() > kIdReuseLag) {
      const std::uint32_t id = freed_.front();
      freed_.pop_front();
      return id;
    }
    if (in_->max_id == std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("packed ids exhausted");
    }
    return ++in_->max_id;
  }
  void Retire(cosr::ObjectId trace_id) {
    in_->ops.push_back(Op{remap_[trace_id], 0});
    freed_.push_back(remap_[trace_id]);
    remap_[trace_id] = 0;
  }

  Inputs* in_;
  std::vector<std::uint32_t> remap_;  // trace id -> live packed id, or 0
  std::deque<std::uint32_t> freed_;
};

/// Index of the first delete (the end of a churn trace's fill).
std::size_t FirstDelete(const std::vector<Op>& ops) {
  std::size_t i = 0;
  while (i < ops.size() && ops[i].is_insert()) ++i;
  return i;
}

/// Live volume after ops[0, n).
std::uint64_t LiveVolumeAfter(const Inputs& in, std::size_t n) {
  std::vector<std::uint32_t> size_of(std::size_t{in.max_id} + 1, 0);
  std::uint64_t volume = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = in.ops[i];
    if (op.is_insert()) {
      size_of[op.id] = op.size;
      volume += op.size;
    } else {
      volume -= size_of[op.id];
    }
  }
  return volume;
}

/// Uniform live ids to look up after each request from in.setup_end on.
void AddLookups(std::uint64_t seed, Inputs* in) {
  cosr::Rng rng(seed ^ 0x6c6f6f6b75707321ull);
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> pos(std::size_t{in->max_id} + 1, 0);
  in->lookups.reserve((in->ops.size() - in->setup_end) * kLookupsPerWrite);
  for (std::size_t i = 0; i < in->ops.size(); ++i) {
    const Op& op = in->ops[i];
    if (op.is_insert()) {
      pos[op.id] = static_cast<std::uint32_t>(live.size());
      live.push_back(op.id);
    } else {
      const std::uint32_t at = pos[op.id];
      live[at] = live.back();
      pos[live[at]] = at;
      live.pop_back();
    }
    if (i < in->setup_end) continue;
    for (std::size_t k = 0; k < kLookupsPerWrite; ++k) {
      in->lookups.push_back(live[rng.UniformU64(live.size())]);
    }
  }
}

inline bool Apply(cosr::Reallocator* facade, const Op& op) {
  return (op.is_insert() ? facade->Insert(op.id, op.size)
                         : facade->Delete(op.id))
      .ok();
}

/// What the untraced measured phases collect besides throughput: the
/// paper-unit results of the paper window (a fixed, contiguous run of
/// requests for a given seed) and the per-request latencies of the latency
/// segments.
struct Window {
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> written;  // bytes placed + moved per request
  /// Per-shard peak reserved footprints (a shard's peak does not depend
  /// on how its flushes line up with its siblings'), and the peak live
  /// volume of the whole facade.
  std::vector<std::uint64_t> shard_peaks;
  std::uint64_t peak_volume = 0;
  std::uint64_t inserted_bytes = 0;
  std::uint64_t moved_bytes = 0;
  std::uint64_t failed = 0;
};

/// Host interference (other tenants' cache and memory traffic) only ever
/// slows a run down, and it comes and goes within one. So the timings are
/// measured in many short pieces spread over the run and reported through
/// a quantile on the fast side: latency percentiles are taken per segment
/// and reported as the lower quartile over the segments, and throughput is
/// the upper quartile of the chunk rates. A code change that slows every
/// piece moves these as much as a median; interference that hits fewer
/// than three quarters of the pieces does not.
constexpr std::size_t kLatencySegments = 40;
constexpr double kLatencyQuantile = 0.25;
constexpr double kThroughputQuantile = 0.75;

/// Percentile q of each latency segment, then kLatencyQuantile over the
/// segments.
double SegmentPercentile(const std::vector<std::uint64_t>& latency,
                         double q) {
  std::vector<std::uint64_t> per_segment;
  const std::size_t n = latency.size();
  for (std::size_t s = 0; s < kLatencySegments; ++s) {
    std::vector<std::uint64_t> segment(
        latency.begin() + static_cast<std::ptrdiff_t>(n * s / kLatencySegments),
        latency.begin() +
            static_cast<std::ptrdiff_t>(n * (s + 1) / kLatencySegments));
    per_segment.push_back(Percentile(segment, q));
  }
  return static_cast<double>(Percentile(per_segment, kLatencyQuantile));
}

/// Adds the end-to-end metrics derived from the window.
void ReportWindow(Window& w, Report* report) {
  report->Add("op_p50_ns", SegmentPercentile(w.latency_ns, 0.5), "ns");
  std::uint64_t peak_reserved = 0;
  for (std::uint64_t peak : w.shard_peaks) peak_reserved += peak;
  report->Add("footprint_ratio",
              static_cast<double>(peak_reserved) /
                  static_cast<double>(std::max<std::uint64_t>(w.peak_volume, 1)),
              "ratio");
  const double inserted =
      static_cast<double>(std::max<std::uint64_t>(w.inserted_bytes, 1));
  report->Add("cost_ratio",
              (static_cast<double>(w.inserted_bytes) +
               static_cast<double>(w.moved_bytes)) /
                  inserted,
              "ratio");
  report->Add("op_written_bytes_p999",
              static_cast<double>(Percentile(w.written, 0.999)), "B");
  report->Add("op_written_bytes_max",
              static_cast<double>(Percentile(w.written, 1.0)), "B");
  report->Info("paper window: " + std::to_string(w.written.size()) +
               " requests, realloc_cost_ratio " +
               Num(static_cast<double>(w.moved_bytes) / inserted) +
               " (bytes moved / bytes inserted); latency: " +
               std::to_string(w.latency_ns.size()) + " requests in " +
               std::to_string(kLatencySegments) + " segments");
  // The wall-clock tails move with host interference far more than the
  // bound of an end-to-end metric allows on a shared host, so they are
  // printed for reference, over all samples; op_written_bytes_* is the
  // gated tail signal.
  std::vector<std::uint64_t> all = w.latency_ns;
  report->Info("latency over all " + std::to_string(all.size()) +
               " samples: op_p50_ns " + Num(Percentile(all, 0.5)) +
               ", op_p99_ns " + Num(Percentile(all, 0.99)) + ", op_p999_ns " +
               Num(Percentile(all, 0.999)));
}

/// Throughput chunks run by a measured phase, and where it ended.
struct Pass {
  std::size_t end = 0;
  std::vector<double> chunk_rates;
  std::uint64_t chunk_requests = 0;
  double chunk_seconds = 0.0;
  double wall_s = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t lookup_misses = 0;

  void AddChunk(std::size_t requests, double seconds) {
    chunk_rates.push_back(static_cast<double>(requests) / seconds);
    chunk_requests += requests;
    chunk_seconds += seconds;
  }
};

void ReportThroughput(const Pass& pass, std::size_t total, Report* report) {
  std::vector<double> rates = pass.chunk_rates;
  report->Add("ops_per_sec", Percentile(rates, kThroughputQuantile), "ops/s");
  std::string quartiles;
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    quartiles += " " + Num(Percentile(rates, q));
  }
  report->Info("throughput: " + std::to_string(pass.chunk_requests) +
               " requests in " + std::to_string(pass.chunk_rates.size()) +
               " chunks (rate min/q1/median/q3/max" + quartiles +
               "), mean " +
               Num(static_cast<double>(pass.chunk_requests) /
                   pass.chunk_seconds) +
               " ops/s; measured phase " + Num(pass.wall_s) + " s");
  if (pass.end == total) {
    report->Info("the measured phase ended at the end of the generated trace");
  }
}

// ------------------------------------------------------- sync workloads

struct SyncSpec {
  const char* algorithm;
  std::uint32_t shards;
  bool durable;
  std::size_t paper;    // requests in the paper window
  std::size_t segment;  // requests per latency segment
  std::size_t chunk;    // requests per throughput chunk
};

/// Durable workload's log policy: group commit of 32 checkpoints per
/// fsync, compaction once a log grew by this many bytes.
constexpr std::uint32_t kGroupCommitCheckpoints = 32;
constexpr std::uint64_t kCompactionThresholdBytes = 8ull << 20;

/// One sync stack. Members are declared so that destruction runs facade
/// first, then the timing wrappers, the parent space and the logs.
struct SyncStack {
  std::unique_ptr<cosr::DurabilityHub> hub;
  std::unique_ptr<cosr::AddressSpace> space;
  std::unique_ptr<TimingSpace> timing;
  std::vector<std::unique_ptr<TimingCheckpointLog>> log_timers;
  std::unique_ptr<cosr::Reallocator> owner;
  cosr::ShardedReallocator* facade = nullptr;
};

/// Builds the facade over a fresh AddressSpace (through a TimingSpace when
/// `tracer` is non-null). Durable stacks write their logs under `log_dir`.
void BuildSyncStack(const SyncSpec& spec, const std::string& log_dir,
                    SpanTracer* tracer, SyncStack* stack) {
  stack->space = std::make_unique<cosr::AddressSpace>();
  cosr::Space* parent = stack->space.get();
  if (tracer != nullptr) {
    stack->timing = std::make_unique<TimingSpace>(parent, tracer);
    parent = stack->timing.get();
  }
  cosr::ReallocatorSpec inner;
  inner.algorithm = spec.algorithm;
  cosr::Status status;
  if (spec.durable) {
    cosr::DurabilityHub::Options hub_options;
    hub_options.sink_kind = cosr::DurabilityHub::SinkKind::kFile;
    hub_options.file_prefix = log_dir + "/shard";
    hub_options.group_commit.max_unsynced_checkpoints = kGroupCommitCheckpoints;
    hub_options.group_commit.compaction_threshold_bytes =
        kCompactionThresholdBytes;
    stack->hub = std::make_unique<cosr::DurabilityHub>(hub_options);
    // Through the factory: shard_count > 1 builds the sharded facade.
    inner.shard_count = spec.shards;
    inner.routing = cosr::RoutingPolicy::kHashId;
    inner.durability = stack->hub.get();
    status = cosr::MakeReallocator(inner, parent, &stack->owner);
    stack->facade = dynamic_cast<cosr::ShardedReallocator*>(stack->owner.get());
  } else {
    cosr::ShardedReallocator::Options options;
    options.shard_count = spec.shards;
    options.routing = cosr::RoutingPolicy::kHashId;
    std::unique_ptr<cosr::ShardedReallocator> facade;
    status = cosr::ShardedReallocator::Make(inner, options, parent, &facade);
    stack->facade = facade.get();
    stack->owner = std::move(facade);
  }
  if (!status.ok() || stack->facade == nullptr) {
    throw std::runtime_error("facade construction failed: " +
                             status.ToString());
  }
  if (tracer != nullptr && spec.durable) {
    for (std::uint32_t i = 0; i < spec.shards; ++i) {
      stack->log_timers.push_back(
          std::make_unique<TimingCheckpointLog>(stack->hub->log(i), tracer));
      stack->facade->shard_manager(i)->AttachDurabilityLog(
          stack->log_timers.back().get());
    }
  }
}

/// The lookups that follow request i against the caller-owned parent
/// space (durable inputs from setup_end on; none otherwise). Returns the
/// misses.
template <bool kTraced>
std::uint64_t RunLookups(SyncStack& stack, const Inputs& in, std::size_t i) {
  if (in.lookups.empty() || i < in.setup_end) return 0;
  const std::uint32_t* ids = &in.lookups[(i - in.setup_end) * kLookupsPerWrite];
  std::uint64_t misses = 0;
  for (std::size_t k = 0; k < kLookupsPerWrite; ++k) {
    cosr::Extent extent;
    bool hit;
    if constexpr (kTraced) {
      hit = stack.timing->Lookup(ids[k], &extent);
    } else {
      hit = stack.space->TryExtentOf(ids[k], &extent);
    }
    misses += hit ? 0 : 1;
  }
  return misses;
}

/// Runs ops[begin, end) through the facade, each followed by its lookups;
/// returns the failed count.
template <bool kTraced>
std::uint64_t RunOps(SyncStack& stack, const Inputs& in, std::size_t begin,
                     std::size_t end, SpanTracer* tracer,
                     std::uint64_t* lookup_misses) {
  std::uint64_t failed = 0;
  for (std::size_t i = begin; i < end; ++i) {
    bool ok;
    if constexpr (kTraced) {
      ScopedSpan span(tracer, Layer::kFacade);
      ok = Apply(stack.facade, in.ops[i]);
    } else {
      ok = Apply(stack.facade, in.ops[i]);
    }
    failed += ok ? 0 : 1;
    *lookup_misses += RunLookups<kTraced>(stack, in, i);
  }
  return failed;
}

/// Time-bounded (or, with seconds < 0, length-bounded) chunked pass over
/// ops[begin, limit).
template <bool kTraced>
Pass ChunkedPass(SyncStack& stack, const Inputs& in, std::size_t begin,
                 std::size_t limit, double seconds, std::size_t chunk,
                 SpanTracer* tracer) {
  Pass pass;
  pass.end = begin;
  const double start = NowSeconds();
  while (pass.end < limit && (seconds < 0 || NowSeconds() - start < seconds)) {
    const std::size_t stop = std::min(limit, pass.end + chunk);
    const double t0 = NowSeconds();
    pass.failed += RunOps<kTraced>(stack, in, pass.end, stop, tracer,
                                   &pass.lookup_misses);
    pass.AddChunk(stop - pass.end, NowSeconds() - t0);
    pass.end = stop;
  }
  pass.wall_s = NowSeconds() - start;
  return pass;
}

/// The paper window, ops[begin, end): no clock reads; a listener on the
/// parent space counts each request's written bytes, and the per-shard
/// reserved footprints are read after each request.
void RunSyncPaperWindow(SyncStack& stack, const Inputs& in, std::size_t begin,
                        std::size_t end, Window* window,
                        std::uint64_t* lookup_misses) {
  Window& w = *window;
  WrittenBytesListener listener;
  stack.space->AddListener(&listener);
  for (std::uint32_t k = 0; k < stack.facade->shard_count(); ++k) {
    w.shard_peaks.push_back(stack.facade->shard(k).reserved_footprint());
  }
  for (std::size_t i = begin; i < end; ++i) {
    const Op& op = in.ops[i];
    w.failed += Apply(stack.facade, op) ? 0 : 1;
    w.written.push_back(listener.TakeRequest());
    if (op.is_insert()) w.inserted_bytes += op.size;
    const std::uint32_t shard = stack.facade->shard_for(op.id, op.size);
    w.shard_peaks[shard] = std::max(
        w.shard_peaks[shard], stack.facade->shard(shard).reserved_footprint());
    w.peak_volume = std::max(w.peak_volume, stack.facade->volume());
    *lookup_misses += RunLookups<false>(stack, in, i);
  }
  stack.space->RemoveListener(&listener);
  w.moved_bytes = listener.moved_bytes();
}

/// One latency segment, ops[begin, end): each request timed from outside.
void RunSyncSegment(SyncStack& stack, const Inputs& in, std::size_t begin,
                    std::size_t end, Window* window,
                    std::uint64_t* lookup_misses) {
  Window& w = *window;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t t0 = cosr::MonotonicNanos();
    const bool ok = Apply(stack.facade, in.ops[i]);
    const std::uint64_t t1 = cosr::MonotonicNanos();
    w.latency_ns.push_back(t1 - t0);
    w.failed += ok ? 0 : 1;
    *lookup_misses += RunLookups<false>(stack, in, i);
  }
}

/// The measured phases of an untraced sync run: the paper window, then
/// kLatencySegments latency segments each followed by one throughput
/// chunk, then throughput chunks until `seconds` have passed since the
/// first segment. Returns the bytes handed to write(2) over the paper
/// window in *log_bytes.
Pass RunSyncMeasured(SyncStack& stack, const SyncSpec& spec, const Inputs& in,
                     double seconds, Window* window,
                     std::uint64_t* log_bytes) {
  Pass pass;
  const std::uint64_t wchar0 = WriteSyscallBytes();
  pass.end = std::min(in.ops.size(), in.setup_end + spec.paper);
  RunSyncPaperWindow(stack, in, in.setup_end, pass.end, window,
                     &pass.lookup_misses);
  *log_bytes = WriteSyscallBytes() - wchar0;
  const std::size_t size = in.ops.size();
  const auto chunk = [&] {
    const std::size_t stop = std::min(size, pass.end + spec.chunk);
    const double t0 = NowSeconds();
    pass.failed += RunOps<false>(stack, in, pass.end, stop, nullptr,
                                 &pass.lookup_misses);
    pass.AddChunk(stop - pass.end, NowSeconds() - t0);
    pass.end = stop;
  };
  const double start = NowSeconds();
  for (std::size_t s = 0; s < kLatencySegments && pass.end < size; ++s) {
    const std::size_t stop = std::min(size, pass.end + spec.segment);
    RunSyncSegment(stack, in, pass.end, stop, window, &pass.lookup_misses);
    pass.end = stop;
    if (pass.end < size) chunk();
  }
  while (pass.end < size && NowSeconds() - start < seconds) chunk();
  pass.wall_s = NowSeconds() - start;
  pass.failed += window->failed;
  return pass;
}

/// Sets a stack up: builds it and runs the fill. Returns seconds.
double SetUpSync(const SyncSpec& spec, const Inputs& in,
                 const std::string& log_dir, SpanTracer* tracer,
                 SyncStack* stack, std::uint64_t* failed) {
  const double t0 = NowSeconds();
  BuildSyncStack(spec, log_dir, tracer, stack);
  std::uint64_t misses = 0;
  *failed += tracer != nullptr
                 ? RunOps<true>(*stack, in, 0, in.setup_end, tracer, &misses)
                 : RunOps<false>(*stack, in, 0, in.setup_end, tracer, &misses);
  return NowSeconds() - t0;
}

/// End-state checks shared by the sync workloads: SelfCheck, and the
/// facade's volume against the trace's live volume after ops[0, n).
void CheckSyncEnd(SyncStack& stack, const Inputs& in, std::size_t n,
                  Report* report) {
  stack.facade->Quiesce();
  report->Check(stack.space->SelfCheck(), "AddressSpace::SelfCheck failed");
  const std::uint64_t live = LiveVolumeAfter(in, n);
  report->Check(stack.facade->volume() == live,
                "facade volume " + std::to_string(stack.facade->volume()) +
                    " != trace live volume " + std::to_string(live));
}

/// durable-dbblocks end of run: checkpoint every shard, close the logs
/// cleanly (flush + fsync), recover each log into a fresh space and match
/// it extent for extent against the shard's live layout. Returns the
/// recovery wall time; adds the replayed record count to *records.
double RecoverAndCompare(SyncStack& stack, const SyncSpec& spec,
                         Report* report, std::uint64_t* records) {
  stack.facade->CheckpointAll();
  for (std::uint32_t i = 0; i < spec.shards; ++i) stack.hub->sink(i)->Sync();
  const Layout live = stack.space->Snapshot();
  double wall = 0.0;
  for (std::uint32_t i = 0; i < spec.shards; ++i) {
    const std::uint64_t lo = stack.facade->shard_view(i).base();
    const std::uint64_t hi = lo + stack.facade->shard_view(i).span();
    Layout expected;
    for (const auto& entry : live) {
      if (entry.second.offset >= lo && entry.second.offset < hi) {
        expected.push_back(entry);
      }
    }
    cosr::AddressSpace recovered;
    cosr::RecoveryResult result;
    const double t0 = NowSeconds();
    const cosr::Status status = cosr::RecoveryManager::RecoverFile(
        stack.hub->file_path(i), &recovered, &result);
    wall += NowSeconds() - t0;
    *records += result.records_replayed;
    report->Check(status.ok(), "shard " + std::to_string(i) +
                                   " recovery failed: " + status.ToString());
    std::string why;
    report->Check(LayoutsMatch(expected, recovered.Snapshot(), &why),
                  "shard " + std::to_string(i) +
                      " recovered layout differs from live: " + why);
  }
  return wall;
}

/// Sum of the shard logs' counters, for before/after deltas.
struct LogTotals {
  std::uint64_t records = 0;
  std::uint64_t syncs = 0;
  double sync_wall_s = 0.0;
  double max_stall_s = 0.0;
  std::uint64_t compactions = 0;
  double rewrite_wall_s = 0.0;
};
LogTotals ReadLogs(const cosr::DurabilityHub* hub) {
  LogTotals t;
  if (hub == nullptr) return t;
  for (std::uint32_t i = 0; i < hub->log_count(); ++i) {
    const cosr::LogSink* sink = hub->sink(i);
    t.records += hub->log(i)->records_written();
    t.syncs += sink->sync_count();
    t.sync_wall_s += sink->sync_wall_seconds();
    t.max_stall_s = std::max(t.max_stall_s, sink->max_sync_stall_seconds());
    t.compactions += hub->log(i)->compactions();
    t.rewrite_wall_s += sink->rewrite_wall_seconds();
  }
  return t;
}

void RunSyncUntraced(const SyncSpec& spec, const Inputs& in,
                     const RunConfig& config, Report* report) {
  ScratchDir scratch(config.workdir);
  std::uint64_t failed = 0;
  std::uint64_t lookup_misses = 0;
  double first_setup = 0.0;
  {
    SyncStack stack;
    const std::uint64_t rss0 = BaselineRssBytes();
    first_setup = SetUpSync(spec, in, scratch.Subdir("logs"), nullptr, &stack,
                            &failed);
    const std::uint64_t objects = stack.space->object_count();
    const std::uint64_t rss1 = RssBytes();
    report->Add("rss_bytes_per_object",
                static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                    static_cast<double>(std::max<std::uint64_t>(objects, 1)),
                "B");
    report->Info("set-up: " + std::to_string(in.setup_end) + " requests, " +
                 std::to_string(objects) + " live objects");

    Window window;
    std::uint64_t log_bytes = 0;
    const Pass pass =
        RunSyncMeasured(stack, spec, in, config.seconds, &window, &log_bytes);
    failed += pass.failed;
    lookup_misses += pass.lookup_misses;
    ReportWindow(window, report);
    ReportThroughput(pass, in.ops.size(), report);
    report->CountRequests(pass.end, 0);

    CheckSyncEnd(stack, in, pass.end, report);
    if (spec.durable) {
      report->Info("log_write_bytes_per_op: " +
                   Num(static_cast<double>(log_bytes) /
                       static_cast<double>(spec.paper)) +
                   " B (write(2) bytes over the paper window, rewrites "
                   "included)");
      std::uint64_t records = 0;
      const double recovery = RecoverAndCompare(stack, spec, report, &records);
      report->Info("recovery_s: " + Num(recovery) + " s (" +
                   std::to_string(records) + " records replayed)");
      report->Check(lookup_misses == 0,
                    std::to_string(lookup_misses) + " lookups of live ids missed");
    }
  }
  const double setup_s = MedianSetupSeconds({first_setup}, [&] {
    SyncStack stack;
    const std::string dir = scratch.Subdir("setup");
    const double t = SetUpSync(spec, in, dir, nullptr, &stack, &failed);
    report->CountRequests(in.setup_end, 0);
    return t;
  });
  report->Add("setup_s", setup_s, "s");
  report->CountRequests(0, failed);
}

/// The bare-algorithm rung: `shards` instances of the inner algorithm, no
/// facade, each over its own AddressSpace (with a CheckpointManager for
/// managed algorithms) behind a TimingSpace; requests routed by the same
/// hash the facades use. Times each bare Insert/Delete as a kFacade span.
struct BareRung {
  std::vector<std::unique_ptr<cosr::CheckpointManager>> managers;
  std::vector<std::unique_ptr<cosr::AddressSpace>> spaces;
  std::vector<std::unique_ptr<TimingSpace>> timings;
  std::vector<std::unique_ptr<cosr::Reallocator>> inner;  // destroyed first

  BareRung(const char* algorithm, std::uint32_t shards, SpanTracer* tracer) {
    cosr::ReallocatorSpec spec;
    spec.algorithm = algorithm;
    const bool managed = cosr::AlgorithmNeedsCheckpointManager(algorithm);
    for (std::uint32_t i = 0; i < shards; ++i) {
      managers.push_back(managed ? std::make_unique<cosr::CheckpointManager>()
                                 : nullptr);
      spaces.push_back(
          std::make_unique<cosr::AddressSpace>(managers.back().get()));
      timings.push_back(
          std::make_unique<TimingSpace>(spaces.back().get(), tracer));
      inner.emplace_back();
      const cosr::Status status =
          cosr::MakeReallocator(spec, timings.back().get(), &inner.back());
      if (!status.ok()) {
        throw std::runtime_error("bare rung: " + status.ToString());
      }
    }
  }

  std::uint64_t Run(const Inputs& in, std::size_t begin, std::size_t end,
                    SpanTracer* tracer) {
    std::uint64_t failed = 0;
    const auto k = static_cast<std::uint32_t>(inner.size());
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = in.ops[i];
      cosr::Reallocator* target = inner[cosr::RouteToShard(
                                            cosr::RoutingPolicy::kHashId, k,
                                            op.id, op.size)]
                                      .get();
      ScopedSpan span(tracer, Layer::kFacade);
      failed += Apply(target, op) ? 0 : 1;
    }
    return failed;
  }
  std::uint64_t calls() const {
    std::uint64_t sum = 0;
    for (const auto& t : timings) sum += t->calls();
    return sum;
  }
  std::uint64_t moves() const {
    std::uint64_t sum = 0;
    for (const auto& t : timings) sum += t->moves();
    return sum;
  }
};

/// The free-index rung: BinnedFreeIndex driven directly the way first-fit
/// drives it (FindFit, else the frontier; Reserve; Release on delete).
struct FreeIndexRung {
  double ns_per_op = 0.0;
  std::uint64_t gaps_end = 0;
  double gap_hit_ratio = 0.0;
};
FreeIndexRung RunFreeIndexRung(const Inputs& in, std::size_t begin,
                               std::size_t end) {
  auto index = std::make_unique<cosr::BinnedFreeIndex>();
  std::vector<cosr::Extent> placed(std::size_t{in.max_id} + 1);
  std::uint64_t inserts = 0;
  std::uint64_t hits = 0;
  auto apply = [&](const Op& op) {
    if (op.is_insert()) {
      const std::optional<std::uint64_t> fit = index->FindFit(op.size);
      const std::uint64_t offset = fit.value_or(index->frontier());
      index->Reserve(offset, op.size);
      placed[op.id] = cosr::Extent{offset, op.size};
      ++inserts;
      hits += fit.has_value() ? 1 : 0;
    } else {
      index->Release(placed[op.id]);
    }
  };
  for (std::size_t i = 0; i < begin; ++i) apply(in.ops[i]);
  inserts = 0;
  hits = 0;
  const std::uint64_t t0 = cosr::MonotonicNanos();
  for (std::size_t i = begin; i < end; ++i) apply(in.ops[i]);
  const std::uint64_t t1 = cosr::MonotonicNanos();
  FreeIndexRung rung;
  rung.ns_per_op =
      static_cast<double>(t1 - t0) / static_cast<double>(end - begin);
  rung.gaps_end = index->gap_count();
  rung.gap_hit_ratio = static_cast<double>(hits) /
                       static_cast<double>(std::max<std::uint64_t>(inserts, 1));
  return rung;
}

/// Every per-layer metric, zero-initialized; each workload fills the
/// layers it exercises and the rest stay 0.
struct LayerMetrics {
  std::vector<Metric> values = {
      {"submit.ns_per_op", 0, "ns"},
      {"submit.ops_per_batch", 0, "ops"},
      {"submit.remote_share", 0, "ratio"},
      {"drain.flush_wait_s", 0, "s"},
      {"drain.worker_imbalance", 0, "ratio"},
      {"drain.queue_wait_p50_ns", 0, "ns"},
      {"drain.service_p50_ns", 0, "ns"},
      {"facade.self_ns_per_op", 0, "ns"},
      {"checkpoint.calls", 0, "count"},
      {"checkpoint.ns_per_call", 0, "ns"},
      {"core.self_ns_per_op", 0, "ns"},
      {"core.moves_per_op", 0, "count"},
      {"core.space_calls_per_op", 0, "count"},
      {"free_index.ns_per_op", 0, "ns"},
      {"free_index.gaps_end", 0, "count"},
      {"free_index.gap_hit_ratio", 0, "ratio"},
      {"space.place_ns", 0, "ns"},
      {"space.remove_ns", 0, "ns"},
      {"space.apply_moves_ns_per_move", 0, "ns"},
      {"space.self_ns_per_op", 0, "ns"},
      {"space.lookup_ns", 0, "ns"},
      {"log.listener_ns_per_op", 0, "ns"},
      {"log.records_per_op", 0, "count"},
      {"log.syncs", 0, "count"},
      {"log.sync_wall_s", 0, "s"},
      {"log.max_sync_stall_ms", 0, "ms"},
      {"log.compactions", 0, "count"},
      {"log.rewrite_wall_s", 0, "s"},
      {"log.write_bytes_per_op", 0, "B"},
      {"recovery.records_replayed", 0, "count"},
      {"recovery.ns_per_record", 0, "ns"},
      {"recovery.wall_s", 0, "s"},
      {"trace.overhead", 0, "ratio"},
      {"trace.accounted_share", 0, "ratio"},
  };

  void Set(const std::string& name, double value) {
    for (Metric& m : values) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  void AddTo(Report* report) const {
    for (const Metric& m : values) report->Add(m.name, m.value, m.unit);
  }
};

double PerCall(const LayerTotals& t, bool self) {
  if (t.calls == 0) return 0.0;
  return static_cast<double>(self ? t.self_ns : t.total_ns) /
         static_cast<double>(t.calls);
}

/// Space-layer self time summed over the stack-issued Space calls.
std::uint64_t SpaceSelfNs(const SpanTracer& t) {
  return t.totals(Layer::kSpacePlace).self_ns +
         t.totals(Layer::kSpaceRemove).self_ns +
         t.totals(Layer::kSpaceApplyMoves).self_ns +
         t.totals(Layer::kSpaceCheckpoint).self_ns +
         t.totals(Layer::kSpaceRead).self_ns;
}

/// Sets the space.* and core.* metrics from a traced run over `ops`
/// requests.
void SetSpaceLayers(const SpanTracer& t, std::uint64_t moves,
                    std::uint64_t calls, double ops, LayerMetrics* m) {
  m->Set("space.place_ns", PerCall(t.totals(Layer::kSpacePlace), true));
  m->Set("space.remove_ns", PerCall(t.totals(Layer::kSpaceRemove), true));
  m->Set("space.apply_moves_ns_per_move",
         moves == 0 ? 0.0
                    : static_cast<double>(
                          t.totals(Layer::kSpaceApplyMoves).self_ns) /
                          static_cast<double>(moves));
  m->Set("space.self_ns_per_op", static_cast<double>(SpaceSelfNs(t)) / ops);
  m->Set("core.moves_per_op", static_cast<double>(moves) / ops);
  m->Set("core.space_calls_per_op", static_cast<double>(calls) / ops);
}

void RunSyncTraced(const SyncSpec& spec, const Inputs& in,
                   const RunConfig& config, Report* report) {
  ScratchDir scratch(config.workdir);
  LayerMetrics m;
  std::uint64_t failed = 0;
  const double budget = config.seconds / 3.0;

  // 1. Untraced stack: how many requests fit the budget, at what rate.
  Pass plain;
  {
    SyncStack stack;
    SetUpSync(spec, in, scratch.Subdir("plain"), nullptr, &stack, &failed);
    plain = ChunkedPass<false>(stack, in, in.setup_end, in.ops.size(), budget,
                               spec.chunk, nullptr);
    failed += plain.failed;
    report->CountRequests(plain.end, 0);
  }
  const std::size_t end = plain.end;
  const double ops = static_cast<double>(end - in.setup_end);

  // 2. Traced stack over the same requests.
  SpanTracer tracer;
  {
    SyncStack stack;
    SetUpSync(spec, in, scratch.Subdir("traced"), &tracer, &stack, &failed);
    tracer.Reset();
    const std::uint64_t calls0 = stack.timing->calls();
    const std::uint64_t moves0 = stack.timing->moves();
    const LogTotals logs0 = ReadLogs(stack.hub.get());
    const std::uint64_t wchar0 = WriteSyscallBytes();
    Pass traced = ChunkedPass<true>(stack, in, in.setup_end, end, -1.0,
                                    spec.chunk, &tracer);
    const std::uint64_t wchar1 = WriteSyscallBytes();
    const LogTotals logs1 = ReadLogs(stack.hub.get());
    failed += traced.failed;
    report->CountRequests(end, 0);
    report->Check(traced.lookup_misses == 0, "lookups of live ids missed");

    m.Set("trace.overhead", Median(traced.chunk_rates) / Median(plain.chunk_rates));
    std::uint64_t self_sum = 0;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      self_sum += tracer.totals(static_cast<Layer>(l)).self_ns;
    }
    m.Set("trace.accounted_share",
          static_cast<double>(self_sum) / (traced.wall_s * 1e9));
    SetSpaceLayers(tracer, stack.timing->moves() - moves0,
                   stack.timing->calls() - calls0, ops, &m);
    m.Set("space.lookup_ns", PerCall(tracer.totals(Layer::kSpaceLookup), false));
    const LayerTotals& cp = tracer.totals(Layer::kSpaceCheckpoint);
    m.Set("checkpoint.calls", static_cast<double>(cp.calls));
    if (cp.calls > 0) {
      m.Set("checkpoint.ns_per_call",
            static_cast<double>(cp.total_ns +
                                tracer.totals(Layer::kLogCheckpoint).total_ns) /
                static_cast<double>(cp.calls));
    }
    if (spec.durable) {
      m.Set("log.listener_ns_per_op",
            static_cast<double>(tracer.totals(Layer::kListener).total_ns) / ops);
      m.Set("log.records_per_op",
            static_cast<double>(logs1.records - logs0.records) / ops);
      m.Set("log.syncs", static_cast<double>(logs1.syncs - logs0.syncs));
      m.Set("log.sync_wall_s", logs1.sync_wall_s - logs0.sync_wall_s);
      m.Set("log.max_sync_stall_ms", logs1.max_stall_s * 1e3);
      m.Set("log.compactions",
            static_cast<double>(logs1.compactions - logs0.compactions));
      m.Set("log.rewrite_wall_s", logs1.rewrite_wall_s - logs0.rewrite_wall_s);
      m.Set("log.write_bytes_per_op",
            static_cast<double>(wchar1 - wchar0) / ops);
    }
    report->Info("traced pass: " + std::to_string(end - in.setup_end) +
                 " requests, " + Num(traced.wall_s * 1e9 / ops) +
                 " ns/op wall; untraced " +
                 Num(plain.wall_s * 1e9 / ops) + " ns/op");

    CheckSyncEnd(stack, in, end, report);
    if (spec.durable) {
      std::uint64_t records = 0;
      const double wall = RecoverAndCompare(stack, spec, report, &records);
      m.Set("recovery.records_replayed", static_cast<double>(records));
      m.Set("recovery.wall_s", wall);
      if (records > 0) {
        m.Set("recovery.ns_per_record",
              wall * 1e9 / static_cast<double>(records));
      }
    }
  }
  const double facade_self =
      static_cast<double>(tracer.totals(Layer::kFacade).self_ns) / ops;

  // 3. Bare-algorithm rung over the same requests.
  {
    SpanTracer rung_tracer;
    BareRung rung(spec.algorithm, spec.shards, &rung_tracer);
    failed += rung.Run(in, 0, in.setup_end, &rung_tracer);
    rung_tracer.Reset();
    failed += rung.Run(in, in.setup_end, end, &rung_tracer);
    const double core_self =
        static_cast<double>(rung_tracer.totals(Layer::kFacade).self_ns) / ops;
    m.Set("core.self_ns_per_op", core_self);
    m.Set("facade.self_ns_per_op", facade_self - core_self);
    report->CountRequests(end, 0);
  }

  // 4. Free-index rung (first-fit's free index).
  if (std::string(spec.algorithm) == "first-fit") {
    const FreeIndexRung rung = RunFreeIndexRung(in, in.setup_end, end);
    m.Set("free_index.ns_per_op", rung.ns_per_op);
    m.Set("free_index.gaps_end", static_cast<double>(rung.gaps_end));
    m.Set("free_index.gap_hit_ratio", rung.gap_hit_ratio);
  }
  report->CountRequests(0, failed);
  m.AddTo(report);
}

// ------------------------------------------------- concurrent workload

constexpr std::uint32_t kConcurrentShards = 8;
constexpr std::uint32_t kConcurrentWorkers = 3;
constexpr std::size_t kSubmitBatch = 64;  // OpBuffer's largest batch
constexpr std::size_t kConcurrentChunk = 200000;
constexpr std::size_t kConcurrentSegment = 5000;
constexpr std::size_t kCheckOps = 1000000;

/// The worker threads hold the listeners' addresses, so the stack never
/// moves; `facade` is declared last and so joins its workers before the
/// listeners go.
struct ConcurrentStack {
  std::array<WrittenBytesListener, kConcurrentShards> listeners;
  std::unique_ptr<cosr::ConcurrentShardedReallocator> facade;

  ConcurrentStack() {
    cosr::ReallocatorSpec spec;
    spec.algorithm = "cost-oblivious";
    cosr::ConcurrentShardedReallocator::Options options;
    options.shard_count = kConcurrentShards;
    options.worker_threads = kConcurrentWorkers;
    options.routing = cosr::RoutingPolicy::kHashId;
    const cosr::Status status =
        cosr::ConcurrentShardedReallocator::Make(spec, options, &facade);
    if (!status.ok()) {
      throw std::runtime_error("concurrent facade: " + status.ToString());
    }
    for (std::uint32_t i = 0; i < kConcurrentShards; ++i) {
      facade->AddShardListener(i, &listeners[i]);
    }
  }
  ConcurrentStack(const ConcurrentStack&) = delete;
  ConcurrentStack& operator=(const ConcurrentStack&) = delete;
};

/// Submits ops[begin, end) in kSubmitBatch-op SubmitMany calls (spans
/// around each when traced). Returns the ops not enqueued.
std::uint64_t Submit(cosr::ConcurrentShardedReallocator* facade,
                     const Inputs& in, std::size_t begin, std::size_t end,
                     SpanTracer* tracer) {
  std::array<cosr::Request, kSubmitBatch> batch;
  std::uint64_t rejected = 0;
  for (std::size_t i = begin; i < end; i += kSubmitBatch) {
    const std::size_t n = std::min(kSubmitBatch, end - i);
    for (std::size_t k = 0; k < n; ++k) {
      const Op& op = in.ops[i + k];
      batch[k] = op.is_insert() ? cosr::Request::Insert(op.id, op.size)
                                : cosr::Request::Delete(op.id);
    }
    std::size_t accepted = 0;
    if (tracer != nullptr) {
      ScopedSpan span(tracer, Layer::kSubmit);
      facade->SubmitMany(batch.data(), n, &accepted);
    } else {
      facade->SubmitMany(batch.data(), n, &accepted);
    }
    rejected += n - accepted;
  }
  return rejected;
}

void FlushTraced(cosr::ConcurrentShardedReallocator* facade,
                 SpanTracer* tracer) {
  if (tracer != nullptr) {
    ScopedSpan span(tracer, Layer::kFlush);
    facade->Flush();
  } else {
    facade->Flush();
  }
}

double SetUpConcurrent(const Inputs& in, std::unique_ptr<ConcurrentStack>* out,
                       std::uint64_t* failed) {
  const double t0 = NowSeconds();
  *out = std::make_unique<ConcurrentStack>();
  *failed += Submit((*out)->facade.get(), in, 0, in.setup_end, nullptr);
  (*out)->facade->Flush();
  return NowSeconds() - t0;
}

/// Chunked pass over ops[begin, limit): each chunk is submitted, then
/// flushed, and its rate counts both. `after_chunk(index, end)` runs after
/// each chunk, outside the timed region.
template <typename AfterChunk>
Pass ConcurrentPass(ConcurrentStack& stack, const Inputs& in,
                    std::size_t begin, std::size_t limit, double seconds,
                    SpanTracer* tracer, AfterChunk&& after_chunk) {
  Pass pass;
  pass.end = begin;
  const double start = NowSeconds();
  while (pass.end < limit && (seconds < 0 || NowSeconds() - start < seconds)) {
    const std::size_t stop = std::min(limit, pass.end + kConcurrentChunk);
    const double t0 = NowSeconds();
    pass.failed += Submit(stack.facade.get(), in, pass.end, stop, tracer);
    FlushTraced(stack.facade.get(), tracer);
    pass.AddChunk(stop - pass.end, NowSeconds() - t0);
    pass.end = stop;
    after_chunk(pass.chunk_rates.size() - 1, pass.end);
  }
  pass.wall_s = NowSeconds() - start;
  return pass;
}

/// Moved bytes per shard of a shared-parent facade, attributed by the
/// shard sub-range each move lands in.
class ShardMovedBytes final : public cosr::SpaceListener {
 public:
  ShardMovedBytes(std::uint32_t shards, std::uint64_t span)
      : span_(span), moved_(shards, 0) {}
  void OnMove(cosr::ObjectId, const cosr::Extent&,
              const cosr::Extent& to) override {
    moved_[to.offset / span_] += to.length;
  }
  void OnMoves(const cosr::MoveRecord* records, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      moved_[records[i].to.offset / span_] += records[i].to.length;
    }
  }
  const std::vector<std::uint64_t>& moved() const { return moved_; }

 private:
  std::uint64_t span_;
  std::vector<std::uint64_t> moved_;
};

/// The check: replays ops[0, n) through a sync ShardedReallocator at the
/// same K and compares per-shard moved bytes and peak reserved footprints.
void CheckAgainstSyncReplay(const Inputs& in, std::size_t n,
                            const std::vector<std::uint64_t>& moved,
                            const std::vector<std::uint64_t>& peaks,
                            Report* report) {
  cosr::AddressSpace space;
  cosr::ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  cosr::ShardedReallocator::Options options;
  options.shard_count = kConcurrentShards;
  options.routing = cosr::RoutingPolicy::kHashId;
  std::unique_ptr<cosr::ShardedReallocator> facade;
  const cosr::Status status =
      cosr::ShardedReallocator::Make(spec, options, &space, &facade);
  if (!status.ok()) throw std::runtime_error("replay: " + status.ToString());
  ShardMovedBytes listener(kConcurrentShards, options.subrange_span);
  space.AddListener(&listener);
  std::vector<std::uint64_t> replay_peaks(kConcurrentShards, 0);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = in.ops[i];
    failed += Apply(facade.get(), op) ? 0 : 1;
    const std::uint32_t shard = facade->shard_for(op.id, op.size);
    replay_peaks[shard] = std::max(replay_peaks[shard],
                                   facade->shard(shard).reserved_footprint());
  }
  space.RemoveListener(&listener);
  report->Check(failed == 0, "sync replay had failed requests");
  for (std::uint32_t i = 0; i < kConcurrentShards; ++i) {
    report->Check(moved[i] == listener.moved()[i],
                  "shard " + std::to_string(i) + " moved " +
                      std::to_string(moved[i]) + " B, sync replay " +
                      std::to_string(listener.moved()[i]) + " B");
    report->Check(peaks[i] == replay_peaks[i],
                  "shard " + std::to_string(i) + " peak footprint " +
                      std::to_string(peaks[i]) + ", sync replay " +
                      std::to_string(replay_peaks[i]));
  }
}

/// End-state checks: no failed/dropped op, volume, per-shard SelfCheck.
void CheckConcurrentEnd(ConcurrentStack& stack, const Inputs& in,
                        std::size_t n, Report* report,
                        cosr::ShardStats* stats_out) {
  stack.facade->Flush();
  cosr::ShardStats stats = stack.facade->Stats();
  std::uint64_t failed = 0;
  for (const auto& shard : stats.shards) failed += shard.failed_ops;
  report->Check(failed == 0, std::to_string(failed) + " ops failed");
  report->Check(stats.dropped_ops == 0,
                std::to_string(stats.dropped_ops) + " ops dropped");
  report->CountRequests(0, failed + stats.dropped_ops);
  const std::uint64_t live = LiveVolumeAfter(in, n);
  report->Check(stack.facade->volume() == live,
                "facade volume " + std::to_string(stack.facade->volume()) +
                    " != trace live volume " + std::to_string(live));
  for (std::uint32_t i = 0; i < kConcurrentShards; ++i) {
    report->Check(stack.facade->shard_space(i).SelfCheck(),
                  "shard " + std::to_string(i) + " SelfCheck failed");
  }
  *stats_out = std::move(stats);
}


std::uint64_t TotalMoved(const ConcurrentStack& stack) {
  std::uint64_t sum = 0;
  for (const WrittenBytesListener& l : stack.listeners) sum += l.moved_bytes();
  return sum;
}

/// One latency segment, ops[begin, end), on the latency facade: one
/// request at a time through the synchronous Reallocator interface (a token
/// round trip per request) with that service otherwise idle.
void RunConcurrentSegment(const Inputs& in, ConcurrentStack& stack,
                          std::size_t begin, std::size_t end,
                          Window* window) {
  Window& w = *window;
  cosr::ConcurrentShardedReallocator* facade = stack.facade.get();
  for (WrittenBytesListener& l : stack.listeners) l.TakeRequest();
  const std::uint64_t moved0 = TotalMoved(stack);
  const auto reserved = [&](std::uint32_t shard) {
    return facade->counters(shard).reserved_footprint.load(
        std::memory_order_relaxed);
  };
  if (w.shard_peaks.empty()) {
    for (std::uint32_t k = 0; k < kConcurrentShards; ++k) {
      w.shard_peaks.push_back(reserved(k));
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    const Op& op = in.ops[i];
    const std::uint64_t t0 = cosr::MonotonicNanos();
    const bool ok = Apply(facade, op);
    const std::uint64_t t1 = cosr::MonotonicNanos();
    w.latency_ns.push_back(t1 - t0);
    std::uint64_t written = 0;
    for (WrittenBytesListener& l : stack.listeners) written += l.TakeRequest();
    w.written.push_back(written);
    w.failed += ok ? 0 : 1;
    if (op.is_insert()) w.inserted_bytes += op.size;
    const std::uint32_t shard = facade->shard_for(op.id, op.size);
    w.shard_peaks[shard] = std::max(w.shard_peaks[shard], reserved(shard));
    w.peak_volume = std::max(w.peak_volume, facade->volume());
  }
  w.moved_bytes += TotalMoved(stack) - moved0;
}

void RunConcurrentUntraced(const Inputs& in, const RunConfig& config,
                           Report* report) {
  std::uint64_t failed = 0;
  std::vector<double> setups;
  {
    // The throughput facade, set up first on a clean heap (its set-up
    // gives rss_bytes_per_object).
    std::unique_ptr<ConcurrentStack> stack;
    const std::uint64_t rss0 = BaselineRssBytes();
    setups.push_back(SetUpConcurrent(in, &stack, &failed));
    const std::uint64_t rss1 = RssBytes();
    std::uint64_t objects = 0;
    for (std::uint32_t i = 0; i < kConcurrentShards; ++i) {
      objects += stack->facade->shard_space(i).object_count();
    }
    report->Add("rss_bytes_per_object",
                static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                    static_cast<double>(std::max<std::uint64_t>(objects, 1)),
                "B");
    report->Info("set-up: " + std::to_string(in.setup_end) + " requests, " +
                 std::to_string(objects) + " live objects");

    // The latency facade runs ops[setup_end, ...) one request at a time,
    // one segment after each of the first kLatencySegments throughput
    // chunks. Keeping the round trips off the throughput facade keeps
    // their wake-ups from placing its worker threads differently.
    std::unique_ptr<ConcurrentStack> latency;
    setups.push_back(SetUpConcurrent(in, &latency, &failed));
    Window w;
    std::size_t segment_pos = in.setup_end;
    const auto run_segment = [&] {
      const std::size_t stop =
          std::min(in.ops.size(), segment_pos + kConcurrentSegment);
      RunConcurrentSegment(in, *latency, segment_pos, stop, &w);
      segment_pos = stop;
    };

    // The replay check snapshots the throughput facade after kCheckOps.
    std::vector<std::uint64_t> check_moved(kConcurrentShards);
    std::vector<std::uint64_t> check_peaks(kConcurrentShards);
    std::size_t check_end = 0;
    const auto snapshot = [&](std::size_t at) {
      const cosr::ShardStats stats = stack->facade->Stats();
      for (std::uint32_t i = 0; i < kConcurrentShards; ++i) {
        check_moved[i] = stack->listeners[i].moved_bytes();
        check_peaks[i] = stats.shards[i].peak_reserved_footprint;
      }
      check_end = at;
    };
    const Pass pass = ConcurrentPass(
        *stack, in, in.setup_end, in.ops.size(), config.seconds, nullptr,
        [&](std::size_t index, std::size_t at) {
          if (index < kLatencySegments) run_segment();
          if (check_end == 0 && at >= in.setup_end + kCheckOps) snapshot(at);
        });
    for (std::size_t k = pass.chunk_rates.size(); k < kLatencySegments; ++k) {
      run_segment();
    }
    if (check_end == 0) snapshot(pass.end);
    failed += pass.failed;  // w.failed lands in the facade's failed_ops
    ReportWindow(w, report);
    ReportThroughput(pass, in.ops.size(), report);
    report->CountRequests(pass.end + segment_pos, 0);
    cosr::ShardStats stats;
    CheckConcurrentEnd(*stack, in, pass.end, report, &stats);
    CheckConcurrentEnd(*latency, in, segment_pos, report, &stats);
    stack.reset();
    latency.reset();
    CheckAgainstSyncReplay(in, check_end, check_moved, check_peaks, report);
    report->Info("replay check: per-shard moved bytes and peak footprints "
                 "over the first " + std::to_string(check_end) +
                 " requests compared against a sync K=8 replay");
  }
  const double setup_s = MedianSetupSeconds(setups, [&] {
    std::unique_ptr<ConcurrentStack> stack;
    const double t = SetUpConcurrent(in, &stack, &failed);
    report->CountRequests(in.setup_end, 0);
    return t;
  });
  report->Add("setup_s", setup_s, "s");
  report->CountRequests(0, failed);
}

void RunConcurrentTraced(const Inputs& in, const RunConfig& config,
                         Report* report) {
  LayerMetrics m;
  std::uint64_t failed = 0;
  const double budget = config.seconds / 3.0;
  const auto no_check = [](std::size_t, std::size_t) {};

  // 1. Untraced facade: how many requests fit the budget, at what rate.
  Pass plain;
  {
    std::unique_ptr<ConcurrentStack> stack;
    SetUpConcurrent(in, &stack, &failed);
    plain = ConcurrentPass(*stack, in, in.setup_end, in.ops.size(), budget,
                           nullptr, no_check);
    failed += plain.failed;
    cosr::ShardStats stats;
    CheckConcurrentEnd(*stack, in, plain.end, report, &stats);
    report->CountRequests(plain.end, 0);
  }
  const std::size_t end = plain.end;
  const double ops = static_cast<double>(end - in.setup_end);

  // 2. Traced facade over the same requests: spans around SubmitMany and
  // each chunk's Flush on the producer thread.
  {
    SpanTracer tracer;
    std::unique_ptr<ConcurrentStack> stack;
    SetUpConcurrent(in, &stack, &failed);
    const cosr::ShardStats before = stack->facade->Stats();
    Pass traced = ConcurrentPass(*stack, in, in.setup_end, end, -1.0,
                                 &tracer, no_check);
    failed += traced.failed;
    cosr::ShardStats stats;
    CheckConcurrentEnd(*stack, in, end, report, &stats);
    report->CountRequests(end, 0);

    m.Set("trace.overhead",
          Median(traced.chunk_rates) / Median(plain.chunk_rates));
    const LayerTotals& submit = tracer.totals(Layer::kSubmit);
    const LayerTotals& flush = tracer.totals(Layer::kFlush);
    m.Set("trace.accounted_share",
          static_cast<double>(submit.self_ns + flush.self_ns) /
              (traced.wall_s * 1e9));
    m.Set("submit.ns_per_op", static_cast<double>(submit.total_ns) / ops);
    std::uint64_t batches = 0;
    std::uint64_t batched = 0;
    std::uint64_t executed = 0;
    std::vector<double> per_worker(kConcurrentWorkers, 0.0);
    for (std::uint32_t i = 0; i < kConcurrentShards; ++i) {
      const auto& now = stats.shards[i];
      const auto& was = before.shards[i];
      batches += now.remote_batches - was.remote_batches;
      batched += now.batched_ops - was.batched_ops;
      executed += now.ops - was.ops;
      per_worker[i % kConcurrentWorkers] +=
          static_cast<double>(now.ops - was.ops);
    }
    m.Set("submit.ops_per_batch",
          static_cast<double>(batched) /
              static_cast<double>(std::max<std::uint64_t>(batches, 1)));
    m.Set("submit.remote_share",
          static_cast<double>(batched) /
              static_cast<double>(std::max<std::uint64_t>(executed, 1)));
    m.Set("drain.flush_wait_s", PerCall(flush, false) / 1e9);
    double sum = 0.0;
    double max = 0.0;
    for (double v : per_worker) {
      sum += v;
      max = std::max(max, v);
    }
    m.Set("drain.worker_imbalance",
          sum > 0 ? max / (sum / static_cast<double>(kConcurrentWorkers)) : 0.0);
    m.Set("drain.queue_wait_p50_ns",
          static_cast<double>(stats.latency_queue_wait.Percentile(0.5)));
    m.Set("drain.service_p50_ns",
          static_cast<double>(stats.latency_service.Percentile(0.5)));
    report->Info("traced pass: " + std::to_string(end - in.setup_end) +
                 " requests, " + Num(traced.wall_s * 1e9 / ops) +
                 " ns/op wall; untraced " + Num(plain.wall_s * 1e9 / ops) +
                 " ns/op");
  }

  // 3. Bare-algorithm rung: the K inner algorithms with no service layer.
  {
    SpanTracer rung_tracer;
    BareRung rung("cost-oblivious", kConcurrentShards, &rung_tracer);
    failed += rung.Run(in, 0, in.setup_end, &rung_tracer);
    rung_tracer.Reset();
    const std::uint64_t calls0 = rung.calls();
    const std::uint64_t moves0 = rung.moves();
    failed += rung.Run(in, in.setup_end, end, &rung_tracer);
    m.Set("core.self_ns_per_op",
          static_cast<double>(rung_tracer.totals(Layer::kFacade).self_ns) /
              ops);
    SetSpaceLayers(rung_tracer, rung.moves() - moves0, rung.calls() - calls0,
                   ops, &m);
    report->CountRequests(end, 0);
  }
  report->CountRequests(0, failed);
  m.AddTo(report);
}

// ----------------------------------------------------------- inputs

/// Requests the throughput pass may consume per second of --seconds; the
/// generated trace covers this rate (a faster build ends its pass early, at
/// the end of the trace).
constexpr double kBigsetCapOpsPerSec = 0.7e6;
constexpr double kDurableCapOpsPerSec = 0.6e6;
constexpr double kConcurrentCapOpsPerSec = 2.0e6;

std::uint64_t CapOps(double rate, const RunConfig& config) {
  const double seconds = config.trace ? config.seconds / 3.0 : config.seconds;
  return static_cast<std::uint64_t>(rate * seconds) + 1;
}

/// Requests a sync measured phase may consume after the paper window: the
/// interleaved segments and chunks, or the capped rate over the run,
/// whichever is more (the phase stops at `--seconds` after the first
/// segment).
std::uint64_t MeasuredOps(const SyncSpec& spec, double rate,
                          const RunConfig& config) {
  return std::max<std::uint64_t>(
      kLatencySegments * (spec.segment + spec.chunk), CapOps(rate, config));
}

}  // namespace

void RunBigsetFirstfit(const RunConfig& config, Report* report) {
  constexpr std::uint64_t kLiveObjects = 4000000;
  const SyncSpec spec{"first-fit", 1, false, /*paper=*/500000,
                      /*segment=*/12500, /*chunk=*/100000};
  cosr::ChurnOptions options;
  options.min_size = 1;
  options.max_size = 4096;
  options.distribution = cosr::SizeDistribution::kUniform;
  options.target_live_volume = kLiveObjects * 2048;
  options.seed = config.seed;
  options.operations =
      kLiveObjects + 4096 + spec.paper +
      MeasuredOps(spec, kBigsetCapOpsPerSec, config);
  Inputs in;
  Packer(&in).Append(cosr::MakeChurnTrace(options));
  in.setup_end = FirstDelete(in.ops);
  report->Info("workload bigset-firstfit: sync ShardedReallocator K=1, hash "
               "routing, first-fit; MakeChurnTrace uniform sizes 1-4096, "
               "target live volume " +
               std::to_string(options.target_live_volume) + " (~4M objects), " +
               std::to_string(in.ops.size()) + " requests generated");
  if (config.trace) {
    RunSyncTraced(spec, in, config, report);
  } else {
    RunSyncUntraced(spec, in, config, report);
  }
}

void RunDurableDbblocks(const RunConfig& config, Report* report) {
  constexpr std::uint64_t kBlocks = 65536;
  constexpr std::size_t kSetupRequests = 600000;
  const SyncSpec spec{"deamortized", 4, true, /*paper=*/500000,
                      /*segment=*/12500, /*chunk=*/50000};
  cosr::DatabaseBlockOptions options;
  options.blocks = kBlocks;
  options.min_size = 64;
  options.max_size = 4096;
  options.zipf_s = 0.9;
  options.seed = config.seed;
  const std::uint64_t requests =
      kSetupRequests + spec.paper +
      MeasuredOps(spec, kDurableCapOpsPerSec, config);
  // Each block write is a delete of the old version (once the block exists)
  // plus an insert, so half as many writes cover the requests.
  options.operations = requests / 2 + kBlocks;
  Inputs in;
  Packer(&in).Append(cosr::MakeDatabaseBlockTrace(options));
  in.ops.resize(std::min<std::size_t>(in.ops.size(), requests));
  in.setup_end = kSetupRequests;
  AddLookups(config.seed, &in);
  report->Info(
      "workload durable-dbblocks: sync facade K=4 via the factory, "
      "deamortized; MakeDatabaseBlockTrace 65536 blocks, Zipf s=0.9, sizes "
      "64-4096; " +
      std::to_string(kLookupsPerWrite) +
      " TryExtentOf lookups of live ids per request; file sinks, group "
      "commit " +
      std::to_string(kGroupCommitCheckpoints) +
      " checkpoints per fsync, compaction at " +
      std::to_string(kCompactionThresholdBytes) + " bytes; " +
      std::to_string(in.ops.size()) + " requests generated");
  if (config.trace) {
    RunSyncTraced(spec, in, config, report);
  } else {
    RunSyncUntraced(spec, in, config, report);
  }
}

void RunConcurrentChurn(const RunConfig& config, Report* report) {
  // Generated in segments of this many requests, each a fresh churn trace
  // whose survivors are deleted before the next one fills, so no more than
  // one segment's full Trace is held at a time.
  constexpr std::uint64_t kSegment = 2000000;
  cosr::ChurnOptions options;
  options.min_size = 1;
  options.max_size = 4096;
  options.distribution = cosr::SizeDistribution::kUniform;
  options.target_live_volume = 8ull << 20;
  const std::uint64_t requests =
      std::max<std::uint64_t>(kLatencySegments * kConcurrentChunk,
                              CapOps(kConcurrentCapOpsPerSec, config));
  Inputs in;
  Packer packer(&in);
  for (std::uint64_t k = 0; in.ops.size() < requests; ++k) {
    if (k > 0) packer.DeleteLive();
    options.seed = config.seed * 1000003 + k;
    options.operations = kSegment;
    packer.Append(cosr::MakeChurnTrace(options));
    if (k == 0) in.setup_end = FirstDelete(in.ops);
  }
  report->Info("workload concurrent-churn: ConcurrentShardedReallocator K=" +
               std::to_string(kConcurrentShards) + " W=" +
               std::to_string(kConcurrentWorkers) +
               ", hash routing, cost-oblivious; one producer, SubmitMany "
               "batches of " +
               std::to_string(kSubmitBatch) +
               "; MakeChurnTrace uniform sizes 1-4096, live volume 8 MiB, "
               "a fresh trace every " +
               std::to_string(kSegment) + " requests; " +
               std::to_string(in.ops.size()) + " requests generated");
  if (config.trace) {
    RunConcurrentTraced(in, config, report);
  } else {
    RunConcurrentUntraced(in, config, report);
  }
}

}  // namespace perfbench
