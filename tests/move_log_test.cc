// Unit tests of the durability tier's logging half: record framing
// (encode/parse roundtrips, golden wire bytes, torn-tail and corruption
// detection), the LogSink crash-surface contract, the MoveLog listener and
// its compaction from the bound space, and the per-shard log wiring of the
// two sharded facades (shared parent vs private roots).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cosr/durability/durability_hub.h"
#include "cosr/durability/log_record.h"
#include "cosr/durability/log_sink.h"
#include "cosr/durability/move_log.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"
#include "support/crash_fuzz.h"

namespace cosr {
namespace {

// FNV-1a over a byte string: pins encoded log bytes to a golden value.
std::uint64_t BytesDigest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

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

TEST(LogRecordTest, WireBytesMatchGolden) {
  // One record of each type, with fields that fill all eight bytes, and a
  // 7-move batch. The digests were recorded from the byte-at-a-time
  // encoders and re-recorded when the trailer became CRC32C (with every
  // trailer zeroed, the bytes were unchanged); any change to the wire
  // format, framing or checksum breaks them.
  std::vector<std::uint8_t> place;
  EncodePlaceRecord(0x0123456789abcdefull, Extent{0xfedcba9876543210ull, 4096},
                    &place);
  std::vector<std::uint8_t> remove;
  EncodeRemoveRecord(77, Extent{std::uint64_t{1} << 40, 3}, &remove);
  std::vector<std::uint8_t> checkpoint;
  EncodeCheckpointRecord(0x8000000000000001ull, &checkpoint);
  std::vector<MoveRecord> moves;
  for (std::uint64_t k = 0; k < 7; ++k) {
    moves.push_back(MoveRecord{1000 + k * k * 31, Extent{k * 4096 + k, 64 + k},
                               Extent{(std::uint64_t{1} << 33) + k * 999,
                                      64 + k}});
  }
  std::vector<std::uint8_t> batch;
  EncodeMoveBatchRecord(moves.data(), moves.size(), &batch);

  EXPECT_EQ(place.size(), kLogRecordFrameBytes + 24);
  EXPECT_EQ(remove.size(), kLogRecordFrameBytes + 24);
  EXPECT_EQ(checkpoint.size(), kLogRecordFrameBytes + 8);
  EXPECT_EQ(batch.size(), kLogRecordFrameBytes + 4 + 7 * 32);
  EXPECT_EQ(BytesDigest(place), 0xdc482754eddb3867ull)
      << std::hex << BytesDigest(place);
  EXPECT_EQ(BytesDigest(remove), 0x4364421f723fedb6ull)
      << std::hex << BytesDigest(remove);
  EXPECT_EQ(BytesDigest(checkpoint), 0x5d95ee64599ac7beull)
      << std::hex << BytesDigest(checkpoint);
  EXPECT_EQ(BytesDigest(batch), 0xb9d00f95c87d59d8ull)
      << std::hex << BytesDigest(batch);

  // Encoders append: the same records behind existing bytes are the
  // concatenation of the standalone encodings.
  std::vector<std::uint8_t> stream = {0xaa, 0xbb};
  EncodePlaceRecord(0x0123456789abcdefull, Extent{0xfedcba9876543210ull, 4096},
                    &stream);
  EncodeMoveBatchRecord(moves.data(), moves.size(), &stream);
  EncodeRemoveRecord(77, Extent{std::uint64_t{1} << 40, 3}, &stream);
  EncodeCheckpointRecord(0x8000000000000001ull, &stream);
  std::vector<std::uint8_t> expected = {0xaa, 0xbb};
  for (const auto* part : {&place, &batch, &remove, &checkpoint}) {
    expected.insert(expected.end(), part->begin(), part->end());
  }
  EXPECT_EQ(stream, expected);
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

TEST(LogRecordTest, HostilePayloadLengthIsTruncatedNotARead) {
  // A header claiming a payload within 4 bytes of 2^32: payload + trailer
  // wraps in 32 bits, so the bounds check must be done wider or the
  // checksum read lands ~4 GiB past the buffer.
  for (const std::uint32_t length :
       {0xFFFFFFFCu, 0xFFFFFFFDu, 0xFFFFFFFEu, 0xFFFFFFFFu}) {
    SCOPED_TRACE(length);
    std::vector<std::uint8_t> log;
    EncodePlaceRecord(7, Extent{100, 40}, &log);
    EncodeCheckpointRecord(1, &log);
    const std::size_t valid_end = log.size();
    log.push_back(static_cast<std::uint8_t>(LogRecordType::kPlace));
    for (int i = 0; i < 4; ++i) {
      log.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
    }
    log.resize(log.size() + 11, 0);  // a few payload bytes

    std::size_t offset = valid_end;
    LogRecordType type = LogRecordType::kPlace;
    std::uint64_t seq = 0;
    EXPECT_EQ(SkimLogRecord(log.data(), log.size(), &offset, &type, &seq),
              LogParseResult::kTruncated);
    EXPECT_EQ(offset, valid_end);
    LogRecord record;
    EXPECT_EQ(ParseLogRecord(log.data(), log.size(), &offset, &record),
              LogParseResult::kTruncated);
    EXPECT_EQ(offset, valid_end);

    AddressSpace recovered;
    RecoveryResult result;
    ASSERT_TRUE(
        RecoveryManager::Recover(log.data(), log.size(), &recovered, &result)
            .ok());
    EXPECT_TRUE(result.torn_tail);
    EXPECT_EQ(result.checkpoint_seq, 1u);
    EXPECT_EQ(result.records_replayed, 2u);
    EXPECT_EQ(result.bytes_discarded, log.size() - valid_end);
    EXPECT_EQ(recovered.extent_of(7), (Extent{100, 40}));
  }
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
  // The log journals the space and compacts from it.
  AddressSpace space;
  space.AddListener(&log);
  log.BindSpace(&space);

  space.Place(1, Extent{0, 8});
  space.Place(2, Extent{8, 8});
  space.Move(1, Extent{16, 8});
  space.Remove(2);
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
  space.RemoveListener(&log);
}

TEST(MoveLogTest, CompactionSnapshotsOnlyTheBoundRange) {
  // Two logs over one parent, each bound to its own half: a compaction
  // writes exactly the objects of its range, in ascending offset order.
  MemoryLogSink sink;
  GroupCommitPolicy policy;
  policy.compaction_threshold_bytes = 1;
  MoveLog log(&sink, policy);
  AddressSpace space;
  log.BindSpace(&space, 100, 200);
  space.Place(1, Extent{150, 10});
  space.Place(2, Extent{40, 10});    // below the range
  space.Place(3, Extent{100, 20});
  space.Place(4, Extent{200, 5});    // at the range's end: outside
  log.LogCheckpoint(7);

  LogParseResult final_result;
  const std::vector<LogRecord> records =
      ParseAll(sink.data(), &final_result);
  EXPECT_EQ(final_result, LogParseResult::kEnd);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].id, 3u);
  EXPECT_EQ(records[0].extent, (Extent{100, 20}));
  EXPECT_EQ(records[1].id, 1u);
  EXPECT_EQ(records[1].extent, (Extent{150, 10}));
  EXPECT_EQ(records[2].type, LogRecordType::kCheckpoint);
  EXPECT_EQ(log.last_compaction_live_records(), 2u);
}

TEST(MoveLogTest, FactoryBindsCompactionInRootCoordinates) {
  // A single-instance durable reallocator over a view at base 2^20 of an
  // unmanaged parent. Its records are in the parent's coordinates, so its
  // compacted snapshot must be too, and must hold only the view's
  // objects: recovery rebuilds exactly the parent's slice.
  constexpr std::uint64_t kBase = 1u << 20;
  AddressSpace parent;
  parent.Place(999, Extent{0, 64});  // outside the view, never journaled
  CheckpointManager manager;
  SubSpaceView view(&parent, kBase, kBase, &manager);
  DurabilityHub::Options hub_options;
  hub_options.group_commit.compaction_threshold_bytes = 1;
  DurabilityHub hub(hub_options);
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.durability = &hub;
  std::unique_ptr<Reallocator> realloc;
  ASSERT_TRUE(MakeReallocator(spec, &view, &realloc).ok());
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(realloc->Insert(id, 1 + id % 50).ok());
  }
  for (ObjectId id = 1; id <= 200; id += 3) {
    ASSERT_TRUE(realloc->Delete(id).ok());
  }
  view.Checkpoint();
  ASSERT_GT(hub.log(0)->compactions(), 0u);

  std::vector<std::pair<ObjectId, Extent>> expected;
  for (const auto& entry : parent.Snapshot()) {
    if (entry.second.offset >= kBase) expected.push_back(entry);
  }
  const std::vector<std::uint8_t>& log = hub.memory_sink(0)->data();
  AddressSpace recovered;
  RecoveryResult result;
  ASSERT_TRUE(
      RecoveryManager::Recover(log.data(), log.size(), &recovered, &result)
          .ok());
  EXPECT_TRUE(recovered.Snapshot() == expected);
  parent.RemoveListener(hub.log(0));
}

TEST(MoveLogDeathTest, CompactingWithoutABoundSpaceAborts) {
  MemoryLogSink sink;
  GroupCommitPolicy policy;
  policy.compaction_threshold_bytes = 1;
  MoveLog log(&sink, policy);
  log.OnPlace(1, Extent{0, 8});
  EXPECT_DEATH(log.LogCheckpoint(1), "bound space");
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

/// Runs CompareDriverLogs: every shard's logs must be byte-identical
/// between the two drivers and recover the threaded shard's objects.
void ExpectDriversLogIdentically(const Trace& trace,
                                 const DriverLogOptions& options) {
  DriverLogReport report;
  const Status status = CompareDriverLogs(trace, options, &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(report.checkpoints, 0u);
  if (options.group_commit.compaction_threshold_bytes > 0) {
    EXPECT_GT(report.retired_streams, 0u);
  }
}

// The crash fuzz enumerates crash points on the inline driver's logs only.
// This carries them to the threaded driver: on the fuzz's smoke traces,
// through per-op Submit at every worker count and through SubmitMany, with
// and without a coalescing, compacting policy, each shard's log bytes are
// the inline driver's.
TEST(ShardLogWiringTest, DriversLogIdenticallyCheckpointed) {
  GroupCommitPolicy gc4;
  gc4.max_unsynced_checkpoints = 4;
  gc4.compaction_threshold_bytes = 4096;
  for (const char* scenario : {"steady-churn", "ramp-collapse",
                               "bimodal-churn"}) {
    Trace trace;
    ASSERT_TRUE(FindFuzzTrace(scenario, &trace).ok());
    for (const GroupCommitPolicy& policy : {GroupCommitPolicy{}, gc4}) {
      for (const auto& [workers, chunk] :
           {std::pair<std::uint32_t, std::size_t>{1, 0}, {2, 0}, {4, 0},
            {4, 32}}) {
        SCOPED_TRACE(std::string(scenario) + " W=" + std::to_string(workers) +
                     " chunk=" + std::to_string(chunk) + " window=" +
                     std::to_string(policy.max_unsynced_checkpoints));
        DriverLogOptions options;
        options.worker_threads = workers;
        options.chunk = chunk;
        options.group_commit = policy;
        ExpectDriversLogIdentically(trace, options);
      }
    }
  }
}

/// The seeded churn trace the compacted-log tests drive (K=4, deamortized,
/// a 2048-byte compaction threshold).
Trace CompactedLogTrace() {
  return MakeChurnTrace({.operations = 6000,
                         .target_live_volume = 1u << 15,
                         .min_size = 1,
                         .max_size = 512,
                         .seed = 43});
}

// The threaded driver at W=2 on the drive whose inline logs are pinned to
// golden digests below (both checkpoint every 200 requests), so its
// compacted logs are pinned too.
TEST(ShardLogWiringTest, DriversLogIdenticallyDeamortized) {
  const Trace trace = CompactedLogTrace();
  DriverLogOptions options;
  options.algorithm = "deamortized";
  options.worker_threads = 2;
  options.operations = trace.requests().size();
  options.group_commit.compaction_threshold_bytes = 2048;
  ExpectDriversLogIdentically(trace, options);
}

/// Per-shard digests of the compacted deamortized logs of
/// CompactedLogTrace, recorded from the log that mirrored every live extent
/// from its own event stream. Compaction now reads the shard's range of
/// the space, in the same offset order, so the bytes must not change.
/// Re-recorded when the record trailer became CRC32C; with every trailer
/// zeroed, the logs were byte-identical to the earlier ones.
constexpr std::uint64_t kCompactedLogDigests[4] = {
    0x11922d99cd8c51e4ull, 0x4c51b2e8fd0caa2dull,
    0x27342b175a308fa5ull, 0xe009b200714a2104ull};

// CompactedLogTrace through the inline facade over one shared parent,
// checkpointed every 200 requests: each shard's log must compact, match
// its golden digest, and recover exactly that shard's objects.
TEST(ShardLogWiringTest, InlineCompactedLogsMatchGolden) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kSpan = 1ull << 22;
  DurabilityHub::Options hub_options;
  hub_options.group_commit.compaction_threshold_bytes = 2048;
  DurabilityHub hub(hub_options);
  ReallocatorSpec spec;
  spec.algorithm = "deamortized";
  spec.durability = &hub;
  AddressSpace parent;
  ShardedReallocator::Options options;
  options.shard_count = kShards;
  options.subrange_span = kSpan;
  std::unique_ptr<ShardedReallocator> facade;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &facade).ok());
  const Trace trace = CompactedLogTrace();
  std::size_t index = 0;
  for (const Request& request : trace.requests()) {
    ASSERT_TRUE((request.type == Request::Type::kInsert
                     ? facade->Insert(request.id, request.size)
                     : facade->Delete(request.id))
                    .ok());
    if (++index % 200 == 0) facade->CheckpointAll();
  }
  facade->Quiesce();
  facade->CheckpointAll();

  ASSERT_EQ(hub.log_count(), kShards);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const std::vector<std::uint8_t>& log = hub.memory_sink(i)->data();
    EXPECT_GT(hub.log(i)->compactions(), 0u);
    EXPECT_EQ(BytesDigest(log), kCompactedLogDigests[i])
        << std::hex << BytesDigest(log);

    std::vector<std::pair<ObjectId, Extent>> shard_objects;
    for (const auto& entry : parent.Snapshot()) {
      if (entry.second.offset / kSpan == i) shard_objects.push_back(entry);
    }
    ASSERT_FALSE(shard_objects.empty());
    AddressSpace recovered;
    RecoveryResult result;
    ASSERT_TRUE(
        RecoveryManager::Recover(log.data(), log.size(), &recovered, &result)
            .ok());
    EXPECT_EQ(result.records_discarded, 0u);
    EXPECT_TRUE(recovered.Snapshot() == shard_objects);
  }
}

}  // namespace
}  // namespace cosr
