// Unit tests of the durability tier's logging half: record framing
// (encode/parse roundtrips, torn-tail and corruption detection), the
// LogSink crash-surface contract, the MoveLog listener, and the per-shard
// log wiring of the two sharded facades (shared parent vs private roots).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosr/durability/durability_hub.h"
#include "cosr/durability/log_record.h"
#include "cosr/durability/log_sink.h"
#include "cosr/durability/move_log.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

std::vector<LogRecord> ParseAll(const std::vector<std::uint8_t>& data,
                                LogParseResult* final_result) {
  std::vector<LogRecord> records;
  std::size_t offset = 0;
  LogRecord record;
  for (;;) {
    const LogParseResult result =
        ParseLogRecord(data.data(), data.size(), &offset, &record);
    if (result != LogParseResult::kOk) {
      *final_result = result;
      return records;
    }
    records.push_back(record);
  }
}

TEST(LogRecordTest, EncodeParseRoundtrip) {
  std::vector<std::uint8_t> log;
  EncodePlaceRecord(7, Extent{100, 40}, &log);
  EncodeRemoveRecord(9, Extent{512, 8}, &log);
  std::vector<MoveRecord> moves = {
      MoveRecord{1, Extent{0, 16}, Extent{64, 16}},
      MoveRecord{2, Extent{16, 32}, Extent{128, 32}},
  };
  EncodeMoveBatchRecord(moves.data(), moves.size(), &log);
  EncodeCheckpointRecord(42, &log);

  LogParseResult final_result;
  const std::vector<LogRecord> records = ParseAll(log, &final_result);
  EXPECT_EQ(final_result, LogParseResult::kEnd);
  ASSERT_EQ(records.size(), 4u);

  EXPECT_EQ(records[0].type, LogRecordType::kPlace);
  EXPECT_EQ(records[0].id, 7u);
  EXPECT_EQ(records[0].extent, (Extent{100, 40}));

  EXPECT_EQ(records[1].type, LogRecordType::kRemove);
  EXPECT_EQ(records[1].id, 9u);
  EXPECT_EQ(records[1].extent, (Extent{512, 8}));

  EXPECT_EQ(records[2].type, LogRecordType::kMoveBatch);
  ASSERT_EQ(records[2].moves.size(), 2u);
  EXPECT_EQ(records[2].moves[0].id, 1u);
  EXPECT_EQ(records[2].moves[0].from, (Extent{0, 16}));
  EXPECT_EQ(records[2].moves[0].to, (Extent{64, 16}));
  EXPECT_EQ(records[2].moves[1].to, (Extent{128, 32}));

  EXPECT_EQ(records[3].type, LogRecordType::kCheckpoint);
  EXPECT_EQ(records[3].checkpoint_seq, 42u);
}

TEST(LogRecordTest, EveryTruncationOfTheTailIsDetected) {
  std::vector<std::uint8_t> log;
  EncodePlaceRecord(7, Extent{100, 40}, &log);
  const std::size_t first_end = log.size();
  EncodeCheckpointRecord(1, &log);

  // Any cut strictly inside the second record: the first record parses,
  // the tail reports truncated, and the offset stays at the cut's record.
  for (std::size_t cut = first_end + 1; cut < log.size(); ++cut) {
    std::vector<std::uint8_t> torn(log.begin(), log.begin() + cut);
    LogParseResult final_result;
    const std::vector<LogRecord> records = ParseAll(torn, &final_result);
    EXPECT_EQ(records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(final_result, LogParseResult::kTruncated) << "cut at " << cut;
  }
}

TEST(LogRecordTest, BitFlipFailsTheChecksum) {
  std::vector<std::uint8_t> log;
  EncodePlaceRecord(7, Extent{100, 40}, &log);
  // Flip one payload bit: framing still reads a complete record, but the
  // checksum must reject it.
  log[kLogRecordHeaderBytes] ^= 0x10;
  std::size_t offset = 0;
  LogRecord record;
  EXPECT_EQ(ParseLogRecord(log.data(), log.size(), &offset, &record),
            LogParseResult::kCorrupt);
  EXPECT_EQ(offset, 0u);  // offset untouched on failure
}

TEST(LogRecordTest, UnknownTypeByteIsCorrupt) {
  std::vector<std::uint8_t> log;
  EncodeCheckpointRecord(1, &log);
  log[0] = 0x7f;
  std::size_t offset = 0;
  LogRecord record;
  EXPECT_EQ(ParseLogRecord(log.data(), log.size(), &offset, &record),
            LogParseResult::kCorrupt);
}

TEST(MemoryLogSinkTest, SurvivingPrefixNeverFallsBelowSyncedSize) {
  MemoryLogSink sink;
  const std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[3] = {5, 6, 7};
  sink.Append(a, sizeof(a));
  sink.Sync();
  sink.Append(b, sizeof(b));

  EXPECT_EQ(sink.size(), 7u);
  EXPECT_EQ(sink.synced_size(), 4u);
  ASSERT_EQ(sink.record_ends().size(), 2u);
  EXPECT_EQ(sink.record_ends()[0], 4u);
  EXPECT_EQ(sink.record_ends()[1], 7u);

  // A crash that would keep fewer bytes than the synced prefix still keeps
  // the synced prefix — that is what Sync() means.
  EXPECT_EQ(sink.SurvivingPrefix(0).size(), 4u);
  EXPECT_EQ(sink.SurvivingPrefix(2).size(), 4u);
  EXPECT_EQ(sink.SurvivingPrefix(5).size(), 5u);
  EXPECT_EQ(sink.SurvivingPrefix(100).size(), 7u);
}

TEST(FileLogSinkTest, AppendSyncReadAllRoundtrip) {
  const std::string path = ::testing::TempDir() + "/cosr_file_sink_test.log";
  std::unique_ptr<FileLogSink> sink;
  ASSERT_TRUE(FileLogSink::Open(path, &sink).ok());

  std::vector<std::uint8_t> expected;
  EncodePlaceRecord(3, Extent{0, 10}, &expected);
  EncodeCheckpointRecord(1, &expected);
  sink->Append(expected.data(), expected.size());
  sink->Sync();
  EXPECT_EQ(sink->size(), expected.size());
  EXPECT_EQ(sink->sync_count(), 1u);

  std::vector<std::uint8_t> read_back;
  ASSERT_TRUE(FileLogSink::ReadAll(path, &read_back).ok());
  EXPECT_EQ(read_back, expected);
}

TEST(MoveLogTest, JournalsEveryListenerEventAndSyncsAtCheckpoints) {
  MemoryLogSink sink;
  MoveLog log(&sink);

  log.OnPlace(1, Extent{0, 8});
  log.OnPlace(2, Extent{8, 8});
  std::vector<MoveRecord> batch = {
      MoveRecord{1, Extent{0, 8}, Extent{16, 8}},
      MoveRecord{2, Extent{8, 8}, Extent{24, 8}},
  };
  log.OnMoves(batch.data(), batch.size());
  log.OnMove(1, Extent{16, 8}, Extent{32, 8});  // a batch of one
  log.OnRemove(2, Extent{24, 8});
  EXPECT_EQ(sink.sync_count(), 0u);  // data records never sync
  log.LogCheckpoint(1);
  EXPECT_EQ(sink.sync_count(), 1u);
  EXPECT_EQ(sink.synced_size(), sink.size());

  EXPECT_EQ(log.records_written(), 6u);
  EXPECT_EQ(log.places_logged(), 2u);
  EXPECT_EQ(log.batches_logged(), 2u);
  EXPECT_EQ(log.moves_logged(), 3u);
  EXPECT_EQ(log.removes_logged(), 1u);
  EXPECT_EQ(log.checkpoints_logged(), 1u);

  LogParseResult final_result;
  const std::vector<LogRecord> records =
      ParseAll(sink.data(), &final_result);
  EXPECT_EQ(final_result, LogParseResult::kEnd);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[2].moves.size(), 2u);
  EXPECT_EQ(records[3].moves.size(), 1u);
  EXPECT_EQ(records[5].type, LogRecordType::kCheckpoint);

  // Empty batches produce no record.
  log.OnMoves(nullptr, 0);
  EXPECT_EQ(log.records_written(), 6u);
}

TEST(LogRecordTest, SkimMatchesParseOnValidAndDamagedStreams) {
  std::vector<std::uint8_t> log;
  EncodePlaceRecord(7, Extent{100, 40}, &log);
  std::vector<MoveRecord> moves = {
      MoveRecord{1, Extent{0, 16}, Extent{64, 16}},
  };
  EncodeMoveBatchRecord(moves.data(), moves.size(), &log);
  EncodeCheckpointRecord(42, &log);

  // Every prefix of the stream: the skim and the full parse must agree on
  // every record's outcome, advanced offset, and checkpoint seq.
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    std::size_t parse_offset = 0;
    std::size_t skim_offset = 0;
    for (;;) {
      LogRecord record;
      LogRecordType type = LogRecordType::kPlace;
      std::uint64_t seq = 0;
      const LogParseResult parsed =
          ParseLogRecord(log.data(), cut, &parse_offset, &record);
      const LogParseResult skimmed =
          SkimLogRecord(log.data(), cut, &skim_offset, &type, &seq);
      ASSERT_EQ(parsed, skimmed) << "cut " << cut;
      ASSERT_EQ(parse_offset, skim_offset) << "cut " << cut;
      if (parsed != LogParseResult::kOk) break;
      EXPECT_EQ(type, record.type);
      if (type == LogRecordType::kCheckpoint) {
        EXPECT_EQ(seq, record.checkpoint_seq);
      }
    }
  }

  // Corruption: both reject a flipped payload bit identically.
  log[kLogRecordHeaderBytes] ^= 0x10;
  std::size_t offset = 0;
  LogRecordType type = LogRecordType::kPlace;
  std::uint64_t seq = 0;
  EXPECT_EQ(SkimLogRecord(log.data(), log.size(), &offset, &type, &seq),
            LogParseResult::kCorrupt);
  EXPECT_EQ(offset, 0u);
}

TEST(MoveLogTest, GroupCommitCoalescesSyncsExactly) {
  MemoryLogSink sink;
  GroupCommitPolicy policy;
  policy.max_unsynced_checkpoints = 4;
  MoveLog log(&sink, policy);

  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    log.OnPlace(seq, Extent{seq * 16, 8});
    log.LogCheckpoint(seq);
  }
  // 10 checkpoints / window of 4 -> syncs at seq 4 and 8; 2 checkpoints
  // remain in the open window.
  EXPECT_EQ(log.checkpoints_logged(), 10u);
  EXPECT_EQ(sink.sync_count(), 2u);
  EXPECT_EQ(log.unsynced_checkpoints(), 2u);
  EXPECT_LT(sink.synced_size(), sink.size());
}

TEST(MoveLogTest, GroupCommitByteTriggerForcesEarlySync) {
  MemoryLogSink sink;
  GroupCommitPolicy policy;
  policy.max_unsynced_checkpoints = 1000;  // count trigger effectively off
  policy.max_unsynced_bytes = 1;           // any appended byte forces sync
  MoveLog log(&sink, policy);

  log.OnPlace(1, Extent{0, 8});
  EXPECT_EQ(sink.sync_count(), 0u);  // data records never sync directly
  log.LogCheckpoint(1);
  EXPECT_EQ(sink.sync_count(), 1u);  // byte trigger fired at the boundary
  EXPECT_EQ(sink.synced_size(), sink.size());
}

TEST(MoveLogTest, DefaultPolicyIsByteIdenticalToExplicitOne) {
  MemoryLogSink default_sink;
  MemoryLogSink explicit_sink;
  MoveLog default_log(&default_sink);
  GroupCommitPolicy strict;
  strict.max_unsynced_checkpoints = 1;
  MoveLog explicit_log(&explicit_sink, strict);

  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    for (MoveLog* log : {&default_log, &explicit_log}) {
      log->OnPlace(seq, Extent{seq * 16, 8});
      log->OnRemove(seq, Extent{seq * 16, 8});
      log->LogCheckpoint(seq);
    }
  }
  EXPECT_EQ(default_sink.data(), explicit_sink.data());
  EXPECT_EQ(default_sink.sync_count(), explicit_sink.sync_count());
  EXPECT_EQ(default_sink.sync_count(), 5u);  // every checkpoint synced
  EXPECT_EQ(default_sink.synced_size(), default_sink.size());
}

TEST(MoveLogTest, CompactionRewritesToLiveSnapshotPlusCheckpoint) {
  MemoryLogSink sink;
  GroupCommitPolicy policy;
  policy.compaction_threshold_bytes = 1;  // compact at every checkpoint
  MoveLog log(&sink, policy);

  log.OnPlace(1, Extent{0, 8});
  log.OnPlace(2, Extent{8, 8});
  log.OnMove(1, Extent{0, 8}, Extent{16, 8});
  log.OnRemove(2, Extent{8, 8});
  const std::uint64_t uncompacted_bytes = sink.size();
  log.LogCheckpoint(1);

  EXPECT_EQ(log.compactions(), 1u);
  EXPECT_EQ(log.last_compaction_live_records(), 1u);
  EXPECT_LT(sink.size(), uncompacted_bytes);
  EXPECT_TRUE(sink.CheckIntegrity());
  // record_ends_ was reset by the rewrite: snapshot place + checkpoint.
  ASSERT_EQ(sink.record_ends().size(), 2u);
  EXPECT_EQ(sink.record_ends().back(), sink.data().size());
  // The replaced stream is retained for fault injection, syncs intact.
  ASSERT_EQ(sink.discarded_streams().size(), 1u);
  EXPECT_EQ(sink.discarded_streams()[0].record_ends.size(), 5u);
  EXPECT_EQ(sink.discarded_streams()[0].synced_size,
            sink.discarded_streams()[0].data.size());

  // The compacted stream is exactly: place(1 at 16) + checkpoint(1).
  LogParseResult final_result;
  const std::vector<LogRecord> records =
      ParseAll(sink.data(), &final_result);
  EXPECT_EQ(final_result, LogParseResult::kEnd);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, LogRecordType::kPlace);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[0].extent, (Extent{16, 8}));
  EXPECT_EQ(records[1].type, LogRecordType::kCheckpoint);
  EXPECT_EQ(records[1].checkpoint_seq, 1u);
  // Rewrites are their own barrier, not checkpoint syncs.
  EXPECT_EQ(sink.sync_count(), 1u);
  EXPECT_EQ(sink.rewrite_count(), 1u);
  EXPECT_EQ(sink.synced_size(), sink.size());
}

TEST(MemoryLogSinkTest, CheckIntegrityCatchesBrokenBookkeeping) {
  MemoryLogSink sink;
  EXPECT_TRUE(sink.CheckIntegrity());  // empty is consistent
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  sink.Append(bytes, sizeof(bytes));
  sink.Append(bytes, 2);
  sink.Sync();
  EXPECT_TRUE(sink.CheckIntegrity());
}

TEST(FileLogSinkTest, BufferedAppendsFlushAtSyncAndReadBack) {
  const std::string path =
      ::testing::TempDir() + "/cosr_buffered_sink_test.log";
  std::unique_ptr<FileLogSink> sink;
  ASSERT_TRUE(FileLogSink::Open(path, &sink).ok());

  std::vector<std::uint8_t> expected;
  EncodePlaceRecord(3, Extent{0, 10}, &expected);
  sink->Append(expected.data(), expected.size());
  EXPECT_EQ(sink->size(), expected.size());

  // The record sits in the user-space buffer: nothing on disk yet.
  std::vector<std::uint8_t> on_disk;
  ASSERT_TRUE(FileLogSink::ReadAll(path, &on_disk).ok());
  EXPECT_TRUE(on_disk.empty());

  // ReadBack flushes (one write) without issuing a durability barrier.
  std::vector<std::uint8_t> read_back;
  ASSERT_TRUE(sink->ReadBack(&read_back).ok());
  EXPECT_EQ(read_back, expected);
  EXPECT_EQ(sink->sync_count(), 0u);

  // Sync flushes any further appends and fsyncs.
  EncodeCheckpointRecord(1, &expected);
  sink->Append(expected.data() + read_back.size(),
               expected.size() - read_back.size());
  sink->Sync();
  EXPECT_EQ(sink->sync_count(), 1u);
  ASSERT_TRUE(FileLogSink::ReadAll(path, &on_disk).ok());
  EXPECT_EQ(on_disk, expected);
}

TEST(FileLogSinkTest, RewriteCommitsAtomicallyUnderTheSamePath) {
  const std::string path =
      ::testing::TempDir() + "/cosr_rewrite_sink_test.log";
  std::unique_ptr<FileLogSink> sink;
  ASSERT_TRUE(FileLogSink::Open(path, &sink).ok());

  std::vector<std::uint8_t> old_stream;
  EncodePlaceRecord(1, Extent{0, 8}, &old_stream);
  EncodeCheckpointRecord(1, &old_stream);
  sink->Append(old_stream.data(), old_stream.size());
  sink->Sync();

  std::vector<std::uint8_t> compacted;
  EncodePlaceRecord(1, Extent{64, 8}, &compacted);
  EncodeCheckpointRecord(2, &compacted);
  sink->BeginRewrite();
  sink->Append(compacted.data(), compacted.size());
  sink->CommitRewrite();

  EXPECT_EQ(sink->size(), compacted.size());
  EXPECT_EQ(sink->rewrite_count(), 1u);
  std::vector<std::uint8_t> on_disk;
  ASSERT_TRUE(FileLogSink::ReadAll(path, &on_disk).ok());
  EXPECT_EQ(on_disk, compacted);

  // Appends keep working on the committed file.
  std::vector<std::uint8_t> tail;
  EncodeCheckpointRecord(3, &tail);
  sink->Append(tail.data(), tail.size());
  sink->Sync();
  ASSERT_TRUE(FileLogSink::ReadAll(path, &on_disk).ok());
  EXPECT_EQ(on_disk.size(), compacted.size() + tail.size());
}

/// One seeded K=4 durable trace, checkpointed every 200 requests, through
/// the synchronous facade over one shared parent (its logs ride one
/// listener that forwards to the executing shard's log) and through the
/// concurrent facade at W=1 (each log on its shard's private root). The
/// per-shard logs must be byte-identical, and each must recover exactly
/// its own shard's objects.
void RunShardLogIdentity(const std::string& algorithm) {
  SCOPED_TRACE(algorithm);
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kSpan = 1ull << 22;
  const Trace trace = MakeChurnTrace({.operations = 3000,
                                      .target_live_volume = 1u << 15,
                                      .min_size = 1,
                                      .max_size = 512,
                                      .seed = 41});

  DurabilityHub sync_hub;
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  spec.durability = &sync_hub;
  AddressSpace parent;
  ShardedReallocator::Options sync_options;
  sync_options.shard_count = kShards;
  sync_options.subrange_span = kSpan;
  std::unique_ptr<ShardedReallocator> sync;
  ASSERT_TRUE(
      ShardedReallocator::Make(spec, sync_options, &parent, &sync).ok());

  DurabilityHub concurrent_hub;
  spec.durability = &concurrent_hub;
  ConcurrentShardedReallocator::Options concurrent_options;
  concurrent_options.shard_count = kShards;
  concurrent_options.worker_threads = 1;
  concurrent_options.subrange_span = kSpan;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(ConcurrentShardedReallocator::Make(spec, concurrent_options,
                                                 &concurrent)
                  .ok());

  std::size_t index = 0;
  for (const Request& request : trace.requests()) {
    ASSERT_TRUE((request.type == Request::Type::kInsert
                     ? sync->Insert(request.id, request.size)
                     : sync->Delete(request.id))
                    .ok());
    ASSERT_TRUE(concurrent->Submit(request).ok());
    if (++index % 200 == 0) {
      sync->CheckpointAll();
      concurrent->CheckpointAll();
    }
  }
  sync->Quiesce();
  sync->CheckpointAll();
  concurrent->Quiesce();
  concurrent->CheckpointAll();

  ASSERT_EQ(sync_hub.log_count(), kShards);
  ASSERT_EQ(concurrent_hub.log_count(), kShards);
  const auto parent_snapshot = parent.Snapshot();
  for (std::uint32_t i = 0; i < kShards; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const std::vector<std::uint8_t>& log = sync_hub.memory_sink(i)->data();
    EXPECT_GT(sync_hub.log(i)->checkpoints_logged(), 0u);
    EXPECT_TRUE(log == concurrent_hub.memory_sink(i)->data());

    std::vector<std::pair<ObjectId, Extent>> expected;
    for (const auto& entry : parent_snapshot) {
      if (entry.second.offset / kSpan == i) expected.push_back(entry);
    }
    ASSERT_FALSE(expected.empty());
    AddressSpace recovered;
    RecoveryResult result;
    ASSERT_TRUE(
        RecoveryManager::Recover(log.data(), log.size(), &recovered, &result)
            .ok());
    EXPECT_EQ(result.records_discarded, 0u);
    EXPECT_TRUE(recovered.Snapshot() == expected);
    EXPECT_TRUE(recovered.Snapshot() == concurrent->shard_space(i).Snapshot());
  }
}

TEST(ShardLogWiringTest, DriversLogIdenticallyCheckpointed) {
  RunShardLogIdentity("checkpointed");
}

TEST(ShardLogWiringTest, DriversLogIdenticallyDeamortized) {
  RunShardLogIdentity("deamortized");
}

}  // namespace
}  // namespace cosr
