#ifndef COSR_DURABILITY_LOG_SINK_H_
#define COSR_DURABILITY_LOG_SINK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosr/common/status.h"

namespace cosr {

/// Where a MoveLog's records land. The contract mirrors a POSIX append-only
/// file with explicit fsync:
///   * Append(bytes) — one whole encoded record per call. Appended bytes
///     are *buffered*, not durable: after a crash an arbitrary prefix of
///     the unsynced tail may survive, including a torn (partial) record.
///   * Sync() — barrier: everything appended before the call survives any
///     later crash. The MoveLog issues it at exactly one place, the
///     checkpoint boundary, under its GroupCommitPolicy.
///   * BeginRewrite()/CommitRewrite() — atomic replacement, for
///     checkpoint-time compaction: appends between the two calls build a
///     staged replacement stream; CommitRewrite makes the staged stream
///     durable and atomically substitutes it for the old log. A crash
///     before the commit leaves the old log; after it, the new one — never
///     a mixture (rename(2) for the file sink, a vector swap in memory).
///
/// The base class owns the sync accounting: sync_count plus the fsync-stall
/// gauges (wall seconds in Sync, and the worst single stall) that surface
/// per shard in ShardStats. Rewrites are counted separately — they carry
/// their own durability barrier, so `sync_count` stays exactly "checkpoint
/// syncs" and the bench invariant syncs <= checkpoints holds.
///
/// Thread-compatible: one log/sink pair is owned by one shard and driven by
/// that shard's owning thread only.
class LogSink {
 public:
  virtual ~LogSink() = default;

  /// Appends one encoded record (to the staged stream during a rewrite).
  virtual void Append(const void* bytes, std::size_t count) = 0;

  /// Durability barrier (fsync). Timed: the stall lands in
  /// sync_wall_seconds / max_sync_stall_seconds.
  void Sync();

  /// Starts a staged rewrite; only Append and CommitRewrite may follow
  /// until the commit. One rewrite at a time.
  void BeginRewrite();

  /// Durably commits the staged stream and atomically replaces the log
  /// with it. Counts into rewrite_count / rewrite_wall_seconds, NOT
  /// sync_count.
  void CommitRewrite();

  /// Bytes in the current log stream: everything appended (buffered +
  /// durable) since creation or the last committed rewrite.
  virtual std::uint64_t size() const = 0;

  /// Sync() calls so far (checkpoint-boundary fsyncs only).
  std::uint64_t sync_count() const { return sync_count_; }
  /// Wall-clock seconds spent inside Sync() so far.
  double sync_wall_seconds() const { return sync_wall_seconds_; }
  /// The single worst Sync() stall, in seconds.
  double max_sync_stall_seconds() const { return max_sync_stall_seconds_; }
  /// Committed rewrites (compactions) and their wall-clock cost.
  std::uint64_t rewrite_count() const { return rewrite_count_; }
  double rewrite_wall_seconds() const { return rewrite_wall_seconds_; }

 protected:
  LogSink() = default;
  LogSink(const LogSink&) = delete;
  LogSink& operator=(const LogSink&) = delete;

  virtual void SyncImpl() = 0;
  virtual void BeginRewriteImpl() = 0;
  virtual void CommitRewriteImpl() = 0;

  bool rewriting() const { return rewriting_; }

 private:
  bool rewriting_ = false;
  std::uint64_t sync_count_ = 0;
  double sync_wall_seconds_ = 0.0;
  double max_sync_stall_seconds_ = 0.0;
  std::uint64_t rewrite_count_ = 0;
  double rewrite_wall_seconds_ = 0.0;
};

/// The in-memory sink used by tests and the fault-injection fuzz. Keeps the
/// full byte stream plus the metadata crash simulation needs: the durable
/// (synced) prefix length and the end offset of every appended record, so
/// the test-side fault injector (tests/support/) can cut the stream at
/// record boundaries, inside the final record (torn write), or mid-batch.
///
/// A committed rewrite truncates the live stream to the staged bytes —
/// data_ and record_ends_ both reset, so neither grows without bound across
/// compactions — and retires the replaced stream (bytes + record ends) into
/// discarded_streams(), preserving the pre-compaction crash surface for the
/// fuzz: a crash before the commit point leaves exactly one of those
/// streams on the medium.
class MemoryLogSink final : public LogSink {
 public:
  /// A stream replaced by a committed rewrite, kept for fault injection.
  struct DiscardedStream {
    std::vector<std::uint8_t> data;
    std::vector<std::uint64_t> record_ends;
    std::uint64_t synced_size = 0;
  };

  MemoryLogSink() = default;

  void Append(const void* bytes, std::size_t count) override;
  std::uint64_t size() const override { return data_.size(); }

  const std::vector<std::uint8_t>& data() const { return data_; }

  /// Length of the durable prefix (everything up to the last Sync).
  std::uint64_t synced_size() const { return synced_size_; }

  /// End offset of every record in the current stream, in append order.
  const std::vector<std::uint64_t>& record_ends() const {
    return record_ends_;
  }

  const std::vector<DiscardedStream>& discarded_streams() const {
    return discarded_streams_;
  }

  /// The bytes surviving a crash when `bytes` of the stream (from offset 0)
  /// hit the medium: the synced prefix always survives, so the effective
  /// cut never falls below it.
  std::vector<std::uint8_t> SurvivingPrefix(std::uint64_t bytes) const;

  /// Bookkeeping self-check: record_ends_ strictly increasing, its last
  /// entry exactly data_.size(), and the synced prefix within bounds.
  bool CheckIntegrity() const;

 private:
  void SyncImpl() override { synced_size_ = data_.size(); }
  void BeginRewriteImpl() override;
  void CommitRewriteImpl() override;

  std::vector<std::uint8_t> data_;
  std::vector<std::uint64_t> record_ends_;
  std::uint64_t synced_size_ = 0;
  std::vector<std::uint8_t> staging_data_;
  std::vector<std::uint64_t> staging_ends_;
  std::vector<DiscardedStream> discarded_streams_;
};

/// The file-backed sink: buffered Append + write(2), Sync = flush + fsync(2).
/// This is the real-IO half of the durability tier — the fuzz exercises
/// crash semantics on MemoryLogSink, and this sink carries the identical
/// byte stream to disk so BENCH_durability can price the fsync discipline.
///
/// Appends land in a user-space buffer flushed as ONE write(2) at sync,
/// rewrite, read-back, and buffer-full boundaries — not one syscall per
/// record. The crash surface is unchanged: buffered bytes were never
/// promised durable (only Sync promises), so losing the buffer is the same
/// legal outcome as losing the kernel page cache.
///
/// A rewrite stages into "<path>.rewrite" and commits via fsync(tmp) +
/// rename(tmp, path) + fsync(dir): after the rename the compacted stream is
/// fully durable under the original path, and a crash at any earlier point
/// leaves the original log untouched.
class FileLogSink final : public LogSink {
 public:
  /// Creates (truncating) `path` for appending.
  static Status Open(const std::string& path,
                     std::unique_ptr<FileLogSink>* out);
  ~FileLogSink() override;

  void Append(const void* bytes, std::size_t count) override;
  std::uint64_t size() const override {
    return rewriting() ? staged_size_ : size_;
  }

  const std::string& path() const { return path_; }

  /// Reads this log back for recovery: flushes the append buffer (no
  /// fsync — read-back wants the logical stream, not a durability barrier)
  /// and returns the file's bytes.
  Status ReadBack(std::vector<std::uint8_t>* out);

  /// Reads a log file back for recovery (no flush — use the instance
  /// ReadBack for a sink that may hold buffered appends).
  static Status ReadAll(const std::string& path,
                        std::vector<std::uint8_t>* out);

 private:
  FileLogSink(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  void SyncImpl() override;
  void BeginRewriteImpl() override;
  void CommitRewriteImpl() override;

  /// One write(2) of the whole buffer to the current target fd.
  void FlushBuffer();
  int target_fd() const { return rewriting() ? rewrite_fd_ : fd_; }

  /// Append-buffer capacity: flushed when a record would overflow it.
  static constexpr std::size_t kBufferBytes = 1u << 16;

  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::vector<std::uint8_t> buffer_;
  int rewrite_fd_ = -1;
  std::uint64_t staged_size_ = 0;
};

}  // namespace cosr

#endif  // COSR_DURABILITY_LOG_SINK_H_
