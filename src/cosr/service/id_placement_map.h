#ifndef COSR_SERVICE_ID_PLACEMENT_MAP_H_
#define COSR_SERVICE_ID_PLACEMENT_MAP_H_

#include <cstdint>
#include <unordered_map>

#include "cosr/common/check.h"
#include "cosr/common/types.h"

namespace cosr {

/// The inline driver's id -> shard placement map (ShardEngine owns it): the
/// authoritative record of which shard holds each live object, for routing
/// policies that cannot re-derive the shard from the id alone (size-class:
/// deletes carry no size; least-loaded: the decision depended on load at
/// insert time) and with migration enabled (a migrated id's hash no longer
/// names its shard).
///
/// TryAssign marks an id live on its shard, Erase frees it, and Reassign
/// repoints it when the rebalancer migrates it. The facade updates the map
/// only after the inner call succeeded, so it records execution exactly.
///
/// Thread-compatible: no internal locking. The facade calls it from its
/// one owner thread.
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
