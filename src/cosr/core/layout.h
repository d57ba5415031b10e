#ifndef COSR_CORE_LAYOUT_H_
#define COSR_CORE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/common/u64_hash_map.h"

namespace cosr {

/// One entry in a buffer segment: a live buffered object, or a dummy delete
/// record that consumes the deleted object's size until the next flush
/// (Section 2, "Allocating and deallocating").
struct BufferEntry {
  ObjectId id = kInvalidObjectId;  // kInvalidObjectId => dummy delete record
  std::uint64_t size = 0;
  int size_class = 0;  // class of the inserted (or deleted) object

  bool live() const { return id != kInvalidObjectId; }
};

/// The i-th region of the array (Invariant 2.2): a payload segment that only
/// stores class-i objects, followed by a buffer segment that stores objects
/// (and dummy records) of classes <= i. Capacities are fixed between flushes
/// of this region: payload capacity is V(i) as of the region's last flush and
/// buffer capacity is floor(eps' * that) (Invariant 2.4).
struct Region {
  std::uint64_t payload_start = 0;
  std::uint64_t payload_capacity = 0;
  std::uint64_t buffer_capacity = 0;
  std::uint64_t buffer_used = 0;
  /// Smallest size class among buffer entries since the region's last flush;
  /// drives the boundary-class computation for flushes.
  int min_buffer_class = std::numeric_limits<int>::max();

  /// Payload objects in ascending offset order. A deleted object leaves a
  /// tombstone (kInvalidObjectId) in its slot, so a delete is O(1); the
  /// region's next flush drops the tombstones. (The space holes the
  /// deletions leave in the segment itself are implicit.)
  std::vector<ObjectId> payload_objects;
  std::vector<BufferEntry> buffer_entries;
  /// Sum of the live payload objects' sizes, and the tombstone count of
  /// payload_objects, maintained incrementally (via
  /// SizeClassLayout::AppendPayloadObject / ErasePayloadObject) so flushes
  /// never re-derive them by walking the object table.
  std::uint64_t payload_live = 0;
  std::size_t payload_holes = 0;

  /// Live payload objects (payload_objects minus its tombstones).
  std::size_t payload_count() const {
    return payload_objects.size() - payload_holes;
  }

  std::uint64_t buffer_start() const {
    return payload_start + payload_capacity;
  }
  std::uint64_t buffer_end() const { return buffer_start() + buffer_capacity; }
  std::uint64_t region_end() const { return buffer_end(); }
  /// Remaining buffer capacity. Saturates at zero: the checkpointed variant
  /// transiently overfills the last buffer with the flush-triggering insert.
  std::uint64_t buffer_free() const {
    return buffer_used >= buffer_capacity ? 0 : buffer_capacity - buffer_used;
  }

  void ResetBuffer() {
    buffer_entries.clear();
    buffer_used = 0;
    min_buffer_class = std::numeric_limits<int>::max();
  }
};

/// Where a size-class layout files an object: 8 bytes, stored inline in
/// its id -> ObjectInfo table. The object's size is its extent's length in
/// the space.
struct ObjectInfo {
  /// Index of the object in its region's payload_objects, or in its
  /// buffer's entry list while buffered (unused for the deamortized
  /// variant's log entries).
  std::uint32_t position;
  std::int16_t region;      // region index where the object currently lives
  std::uint8_t size_class;  // 0 only in vacant table slots
  std::uint8_t in_buffer : 1;
  /// Deamortized variant only: a delete of the object is logged and awaits
  /// replay.
  std::uint8_t pending_delete : 1;
};

struct VacantObjectInfo {
  static constexpr ObjectInfo kValue{};
  static bool IsVacant(const ObjectInfo& info) { return info.size_class == 0; }
};

/// The object table of a size-class layout: id -> ObjectInfo.
using ObjectTable = U64HashMap<ObjectInfo, VacantObjectInfo>;
static_assert(sizeof(ObjectInfo) == 8, "ObjectInfo packs into 8 bytes");

}  // namespace cosr

#endif  // COSR_CORE_LAYOUT_H_
