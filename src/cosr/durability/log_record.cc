#include "cosr/durability/log_record.h"

#include "cosr/common/crc32c.h"

namespace cosr {

namespace {

void PutU32(std::uint32_t value, std::uint8_t* p) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void PutU64(std::uint64_t value, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return value;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

/// Grows `out` by one whole record of `payload` bytes (one resize) and
/// writes its header. Returns the payload's first byte; the caller fills
/// the payload and then calls SealRecord.
std::uint8_t* BeginRecord(LogRecordType type, std::uint32_t payload,
                          std::vector<std::uint8_t>* out) {
  const std::size_t start = out->size();
  out->resize(start + kLogRecordFrameBytes + payload);
  std::uint8_t* record = out->data() + start;
  record[0] = static_cast<std::uint8_t>(type);
  PutU32(payload, record + 1);
  return record + kLogRecordHeaderBytes;
}

/// Writes the CRC32C of the framed bytes behind a filled payload of
/// `payload` bytes. Not cryptographic: the log is trusted storage, and the
/// checksum only needs to catch torn tails and bit rot, as in every WAL
/// format. Logs from builds that checksummed with FNV-1a fail it at their
/// first record.
void SealRecord(std::uint8_t* body, std::uint32_t payload) {
  std::uint8_t* record = body - kLogRecordHeaderBytes;
  const std::size_t framed = kLogRecordHeaderBytes + payload;
  PutU32(Crc32c(record, framed), record + framed);
}

/// kPlace and kRemove share one payload shape.
void EncodeExtentRecord(LogRecordType type, ObjectId id, const Extent& extent,
                        std::vector<std::uint8_t>* out) {
  std::uint8_t* p = BeginRecord(type, 24, out);
  PutU64(id, p);
  PutU64(extent.offset, p + 8);
  PutU64(extent.length, p + 16);
  SealRecord(p, 24);
}

}  // namespace

void EncodePlaceRecord(ObjectId id, const Extent& extent,
                       std::vector<std::uint8_t>* out) {
  EncodeExtentRecord(LogRecordType::kPlace, id, extent, out);
}

void EncodeRemoveRecord(ObjectId id, const Extent& extent,
                        std::vector<std::uint8_t>* out) {
  EncodeExtentRecord(LogRecordType::kRemove, id, extent, out);
}

void EncodeMoveBatchRecord(const MoveRecord* records, std::size_t count,
                           std::vector<std::uint8_t>* out) {
  const auto payload = static_cast<std::uint32_t>(4 + count * 32);
  std::uint8_t* p = BeginRecord(LogRecordType::kMoveBatch, payload, out);
  PutU32(static_cast<std::uint32_t>(count), p);
  std::uint8_t* q = p + 4;
  for (std::size_t i = 0; i < count; ++i, q += 32) {
    PutU64(records[i].id, q);
    PutU64(records[i].from.offset, q + 8);
    PutU64(records[i].from.length, q + 16);
    PutU64(records[i].to.offset, q + 24);
  }
  SealRecord(p, payload);
}

void EncodeCheckpointRecord(std::uint64_t seq,
                            std::vector<std::uint8_t>* out) {
  std::uint8_t* p = BeginRecord(LogRecordType::kCheckpoint, 8, out);
  PutU64(seq, p);
  SealRecord(p, 8);
}

namespace {

/// Shared frame validation for ParseLogRecord / SkimLogRecord: bounds,
/// type range, payload length, checksum, and the per-type payload-shape
/// rules. On kOk sets `*payload_out` (payload length) — the caller decodes
/// (or skips) the payload at data + start + kLogRecordHeaderBytes.
LogParseResult CheckRecordFrame(const std::uint8_t* data, std::size_t size,
                                std::size_t start, std::uint32_t* payload_out) {
  if (start == size) return LogParseResult::kEnd;
  if (start > size || size - start < kLogRecordHeaderBytes) {
    return LogParseResult::kTruncated;
  }
  const std::uint8_t type_byte = data[start];
  if (type_byte < static_cast<std::uint8_t>(LogRecordType::kPlace) ||
      type_byte > static_cast<std::uint8_t>(LogRecordType::kCheckpoint)) {
    return LogParseResult::kCorrupt;
  }
  const std::uint32_t payload = GetU32(data + start + 1);
  // In 64 bits: a hostile length near 2^32 must not wrap past the check.
  if (std::uint64_t{size - start - kLogRecordHeaderBytes} <
      std::uint64_t{payload} + 4u) {
    return LogParseResult::kTruncated;
  }
  const std::size_t body_end = start + kLogRecordHeaderBytes + payload;
  if (GetU32(data + body_end) != Crc32c(data + start, body_end - start)) {
    return LogParseResult::kCorrupt;
  }
  const std::uint8_t* p = data + start + kLogRecordHeaderBytes;
  switch (static_cast<LogRecordType>(type_byte)) {
    case LogRecordType::kPlace:
    case LogRecordType::kRemove:
      if (payload != 24) return LogParseResult::kCorrupt;
      break;
    case LogRecordType::kMoveBatch: {
      if (payload < 4) return LogParseResult::kCorrupt;
      const std::uint32_t count = GetU32(p);
      if (payload != 4 + std::uint64_t{count} * 32) {
        return LogParseResult::kCorrupt;
      }
      break;
    }
    case LogRecordType::kCheckpoint:
      if (payload != 8) return LogParseResult::kCorrupt;
      break;
  }
  *payload_out = payload;
  return LogParseResult::kOk;
}

}  // namespace

LogParseResult ParseLogRecord(const std::uint8_t* data, std::size_t size,
                              std::size_t* offset, LogRecord* record) {
  const std::size_t start = *offset;
  std::uint32_t payload = 0;
  const LogParseResult frame = CheckRecordFrame(data, size, start, &payload);
  if (frame != LogParseResult::kOk) return frame;
  const std::uint8_t type_byte = data[start];
  const std::size_t body_end = start + kLogRecordHeaderBytes + payload;

  const std::uint8_t* p = data + start + kLogRecordHeaderBytes;
  record->type = static_cast<LogRecordType>(type_byte);
  record->moves.clear();
  switch (record->type) {
    case LogRecordType::kPlace:
    case LogRecordType::kRemove:
      record->id = GetU64(p);
      record->extent = Extent{GetU64(p + 8), GetU64(p + 16)};
      break;
    case LogRecordType::kMoveBatch: {
      const std::uint32_t count = GetU32(p);
      record->moves.reserve(count);
      const std::uint8_t* q = p + 4;
      for (std::uint32_t i = 0; i < count; ++i, q += 32) {
        MoveRecord move;
        move.id = GetU64(q);
        move.from = Extent{GetU64(q + 8), GetU64(q + 16)};
        move.to = Extent{GetU64(q + 24), move.from.length};
        record->moves.push_back(move);
      }
      break;
    }
    case LogRecordType::kCheckpoint:
      record->checkpoint_seq = GetU64(p);
      break;
  }
  *offset = body_end + 4;
  return LogParseResult::kOk;
}

LogParseResult SkimLogRecord(const std::uint8_t* data, std::size_t size,
                             std::size_t* offset, LogRecordType* type,
                             std::uint64_t* checkpoint_seq) {
  const std::size_t start = *offset;
  std::uint32_t payload = 0;
  const LogParseResult frame = CheckRecordFrame(data, size, start, &payload);
  if (frame != LogParseResult::kOk) return frame;
  *type = static_cast<LogRecordType>(data[start]);
  if (*type == LogRecordType::kCheckpoint) {
    *checkpoint_seq = GetU64(data + start + kLogRecordHeaderBytes);
  }
  *offset = start + kLogRecordHeaderBytes + payload + 4;
  return LogParseResult::kOk;
}

}  // namespace cosr
