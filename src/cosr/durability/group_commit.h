#ifndef COSR_DURABILITY_GROUP_COMMIT_H_
#define COSR_DURABILITY_GROUP_COMMIT_H_

#include <cstdint>

namespace cosr {

/// How a MoveLog turns logical checkpoints into physical Sync() calls — the
/// group-commit knob of the durability tier. Every checkpoint still appends
/// its kCheckpoint record (the logical durable point recovery lands on);
/// the policy only decides when the accumulated tail is forced to the
/// medium.
///
/// The durable-prefix contract under coalescing: after a crash, recovery
/// lands on the last checkpoint record that survived in the log prefix.
/// The synced frontier guarantees that is AT LEAST the last checkpoint
/// whose Sync() completed; checkpoint records appended after it are a
/// legal crash surface — they may survive (recovery lands later, on an
/// equally consistent state) or be torn away with the tail. The crash fuzz
/// verifies both outcomes byte-for-byte.
struct GroupCommitPolicy {
  /// Sync() once every N logged checkpoints. 1 (default) is the strict
  /// discipline: every checkpoint record is fsynced as it lands. 0 never
  /// syncs, which is only useful for pricing the no-sync ceiling.
  std::uint32_t max_unsynced_checkpoints = 1;

  /// Checkpoint-time log compaction: after a durable (synced) checkpoint,
  /// when at least this many bytes were appended since the last
  /// compaction, the log is rewritten to a snapshot of the live extents
  /// plus that checkpoint record — an empty tail. 0 (default) disables
  /// compaction. See MoveLog::Compact for the atomicity argument.
  std::uint64_t compaction_threshold_bytes = 0;

  /// True when the policy syncs every checkpoint (the PR 6 identity).
  bool sync_every_checkpoint() const { return max_unsynced_checkpoints == 1; }
};

}  // namespace cosr

#endif  // COSR_DURABILITY_GROUP_COMMIT_H_
