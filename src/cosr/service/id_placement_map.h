#ifndef COSR_SERVICE_ID_PLACEMENT_MAP_H_
#define COSR_SERVICE_ID_PLACEMENT_MAP_H_

#include <cstdint>
#include <unordered_map>

#include "cosr/common/check.h"
#include "cosr/common/types.h"

namespace cosr {

/// The id -> shard placement map shared by both sharded facades: the
/// authoritative record of which shard holds each live object, for routing
/// policies that cannot re-derive the shard from the id alone (size-class:
/// deletes carry no size; least-loaded: the decision depended on load at
/// insert time) and for any facade with migration enabled (a migrated id's
/// hash no longer names its shard).
///
/// The map is a submit-time prediction of execution: TryAssign marks an id
/// live on its shard before the insert executes, Erase frees it at delete
/// submit time, and Reassign repoints it when the rebalancer migrates it.
/// Keeping the prediction exact is the caller's contract (the concurrent
/// facade pushes each op to its shard's FIFO under the same lock as the
/// map update, so execution order matches; the single-threaded facade
/// updates it only after the inner call succeeded).
///
/// Thread-compatible: no internal locking. The single-threaded facade calls
/// it from its one owner thread; the concurrent facade guards every access
/// with its routing_mu_.
class IdPlacementMap {
 public:
  /// Claims `id` for `shard`. Returns false (map unchanged) when the id is
  /// already live — the duplicate-insert rejection both facades surface as
  /// AlreadyExists.
  bool TryAssign(ObjectId id, std::uint32_t shard) {
    return map_.emplace(id, shard).second;
  }

  /// The shard holding `id`, or `not_found` when the id is not live.
  std::uint32_t Lookup(ObjectId id, std::uint32_t not_found) const {
    auto it = map_.find(id);
    return it == map_.end() ? not_found : it->second;
  }

  /// Releases `id`. Returns false when it was not live.
  bool Erase(ObjectId id) { return map_.erase(id) != 0; }

  /// Migration repoint: `id` must currently map to `from`; afterwards it
  /// maps to `to`. CHECK-fails on a stale `from` — callers verify the
  /// current placement under the same lock before repointing.
  void Reassign(ObjectId id, std::uint32_t from, std::uint32_t to) {
    auto it = map_.find(id);
    COSR_CHECK(it != map_.end());
    COSR_CHECK_EQ(it->second, from);
    it->second = to;
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

 private:
  std::unordered_map<ObjectId, std::uint32_t> map_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_ID_PLACEMENT_MAP_H_
