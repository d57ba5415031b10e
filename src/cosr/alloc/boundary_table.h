#ifndef COSR_ALLOC_BOUNDARY_TABLE_H_
#define COSR_ALLOC_BOUNDARY_TABLE_H_

#include <cstdint>

#include "cosr/common/u64_hash_map.h"

namespace cosr {

/// Node index of a gap, as stored in a BoundaryTable. kValue (kNil) is the
/// end-of-list marker of BinnedFreeIndex's bin lists and never a node.
struct BoundaryNode {
  static constexpr std::uint32_t kValue = 0xffffffffu;
  static bool IsVacant(std::uint32_t node) { return node == kValue; }
};

/// Gap boundary offset -> node index: the start/end lookup tables behind
/// BinnedFreeIndex's O(1) coalescing.
using BoundaryTable = U64HashMap<std::uint32_t, BoundaryNode>;

}  // namespace cosr

#endif  // COSR_ALLOC_BOUNDARY_TABLE_H_
