#ifndef COSR_DURABILITY_DURABILITY_HUB_H_
#define COSR_DURABILITY_DURABILITY_HUB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosr/durability/group_commit.h"
#include "cosr/durability/log_sink.h"
#include "cosr/durability/move_log.h"

namespace cosr {

/// Owns the durability tier's per-shard state — one LogSink + MoveLog pair
/// per shard — on behalf of whatever the factory builds against it. Passing
/// a hub through ReallocatorSpec::durability makes the factory (and both
/// sharded facades) journal every shard's storage events and checkpoints
/// into the hub's logs; after the run (or a simulated crash) the caller
/// reads the sinks back and recovers them with RecoveryManager.
///
/// Lifetime: the hub must outlive every space or facade wired to it — the
/// logs are registered as raw listeners.
///
/// Thread-compatibility: logs are created during factory construction (one
/// thread); afterwards shard i's log is driven only by shard i's owning
/// thread. Aggregate readers must drain the facade first.
class DurabilityHub {
 public:
  enum class SinkKind {
    kMemory,  // MemoryLogSink: crash simulation + fuzzing
    kFile,    // FileLogSink: real write(2)/fsync(2) costs (bench)
  };

  struct Options {
    SinkKind sink_kind = SinkKind::kMemory;
    /// kFile only: shard i's log lands at "<file_prefix><i>.cosrlog".
    std::string file_prefix;
    /// Sync-coalescing + compaction policy applied to every shard's log
    /// (see GroupCommitPolicy; the default is the strict
    /// sync-every-checkpoint discipline).
    GroupCommitPolicy group_commit;
  };

  DurabilityHub() = default;
  explicit DurabilityHub(Options options) : options_(std::move(options)) {}
  DurabilityHub(const DurabilityHub&) = delete;
  DurabilityHub& operator=(const DurabilityHub&) = delete;

  /// The log for shard `shard`, created (with its sink) on first request.
  /// CHECK-fails if a file sink cannot be opened — the caller picked the
  /// path, and construction has no error channel worth threading for it.
  MoveLog* LogForShard(std::uint32_t shard);

  /// Shards with a created log (indices are dense 0..log_count()).
  std::uint32_t log_count() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  /// nullptr when the shard's log was never created.
  MoveLog* log(std::uint32_t shard) const;
  LogSink* sink(std::uint32_t shard) const;
  /// The sink as a MemoryLogSink, or nullptr under kFile.
  MemoryLogSink* memory_sink(std::uint32_t shard) const;
  /// The file path of shard `shard`'s log (kFile only).
  std::string file_path(std::uint32_t shard) const;

  const Options& options() const { return options_; }

  // Drained-facade aggregates, for the bench tables.
  std::uint64_t total_records() const;
  std::uint64_t total_bytes() const;
  std::uint64_t total_syncs() const;
  std::uint64_t total_checkpoints() const;
  std::uint64_t total_compactions() const;
  /// Wall seconds spent inside Sync() across every shard's sink.
  double total_sync_wall_seconds() const;

 private:
  struct Entry {
    std::unique_ptr<LogSink> sink;
    std::unique_ptr<MoveLog> log;
  };

  Options options_;
  std::vector<Entry> entries_;
};

}  // namespace cosr

#endif  // COSR_DURABILITY_DURABILITY_HUB_H_
