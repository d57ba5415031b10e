#ifndef COSR_DURABILITY_LOG_RECORD_H_
#define COSR_DURABILITY_LOG_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/storage/space.h"

namespace cosr {

/// The move-log wire format. One record per storage event, framed so a
/// truncated tail is always detectable:
///
///   [u8 type][u32 payload_len][payload][u32 checksum]
///
/// all fixed-width fields little-endian; the checksum (CRC32C, see
/// cosr/common/crc32c.h) covers type, payload_len, and payload, so a torn
/// write inside ANY of the fields — including a clipped length — fails
/// verification and ends the valid prefix. Logs written before the checksum
/// became CRC32C (it was FNV-1a folded to 32 bits, with the same framing)
/// read as kCorrupt at their first record. Payloads:
///
///   kPlace      id u64, offset u64, length u64
///   kRemove     id u64, offset u64, length u64   (the freed extent)
///   kMoveBatch  count u32, then count x {id u64, from u64, len u64, to u64}
///   kCheckpoint seq u64
///
/// A kMoveBatch record is emitted once per ApplyMoves batch — the flush
/// paths' batch boundary is the log's batch boundary — so crash-mid-batch
/// faults are representable as a cut inside one record's payload.
enum class LogRecordType : std::uint8_t {
  kPlace = 1,
  kRemove = 2,
  kMoveBatch = 3,
  kCheckpoint = 4,
};

/// Fixed framing overhead per record (type + payload_len + checksum).
inline constexpr std::size_t kLogRecordFrameBytes = 1 + 4 + 4;
/// Offset of the payload within a record.
inline constexpr std::size_t kLogRecordHeaderBytes = 1 + 4;

/// A parsed record. Only the fields of `type` are meaningful.
struct LogRecord {
  LogRecordType type = LogRecordType::kPlace;
  ObjectId id = kInvalidObjectId;  // kPlace / kRemove
  Extent extent;                   // kPlace / kRemove
  std::vector<MoveRecord> moves;   // kMoveBatch
  std::uint64_t checkpoint_seq = 0;  // kCheckpoint
};

/// Outcome of parsing one record at a log offset.
enum class LogParseResult {
  kOk,         // a complete, checksum-valid record
  kEnd,        // the offset is exactly the end of the data
  kTruncated,  // the data ends inside the record (torn tail)
  kCorrupt,    // framing or checksum mismatch
};

// ------------------------------------------------------------- encoding
// Each encoder appends one complete framed record to `out` (which is NOT
// cleared — the MoveLog reuses one scratch buffer per append): it sizes
// the record once, writes the fixed-width fields in place and checksums
// the written bytes.

void EncodePlaceRecord(ObjectId id, const Extent& extent,
                       std::vector<std::uint8_t>* out);
void EncodeRemoveRecord(ObjectId id, const Extent& extent,
                        std::vector<std::uint8_t>* out);
void EncodeMoveBatchRecord(const MoveRecord* records, std::size_t count,
                           std::vector<std::uint8_t>* out);
void EncodeCheckpointRecord(std::uint64_t seq, std::vector<std::uint8_t>* out);

// ------------------------------------------------------------- decoding

/// Parses the record starting at `*offset`. On kOk fills `*record` and
/// advances `*offset` past it; on any other result both are untouched.
LogParseResult ParseLogRecord(const std::uint8_t* data, std::size_t size,
                              std::size_t* offset, LogRecord* record);

/// Validation-only parse: checks the same framing, checksum, and
/// payload-shape rules as ParseLogRecord (the two accept and reject
/// exactly the same streams) but extracts only the record type — and the
/// sequence number for kCheckpoint — without materializing move payloads.
/// This is the recovery scan's pass-1 fast path: finding the durable
/// frontier needs types and checkpoint seqs, not decoded batches.
LogParseResult SkimLogRecord(const std::uint8_t* data, std::size_t size,
                             std::size_t* offset, LogRecordType* type,
                             std::uint64_t* checkpoint_seq);

}  // namespace cosr

#endif  // COSR_DURABILITY_LOG_RECORD_H_
