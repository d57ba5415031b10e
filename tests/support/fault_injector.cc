#include "support/fault_injector.h"

#include "cosr/common/check.h"

namespace cosr {

// Crash images are plain prefixes, NOT SurvivingPrefix: the injector
// simulates a crash at the moment the cut point was written, when the sync
// frontier was at most the last checkpoint record at or before the cut
// (syncs only happen when a checkpoint record is appended — possibly a few
// checkpoints back under a coalescing policy). Every checkpoint inside the
// prefix survives with it, so the Sync() guarantee holds for each image;
// clamping to the sink's *final* synced size would instead resurrect the
// whole log once the run's last checkpoint synced it.
std::vector<std::uint8_t> FaultInjector::CrashAfterRecord(
    std::size_t index) const {
  COSR_CHECK(index < record_count());
  const std::uint64_t cut = record_ends_[index];
  return std::vector<std::uint8_t>(data_.begin(), data_.begin() + cut);
}

std::vector<std::uint8_t> FaultInjector::TornRecord(
    std::size_t index, std::uint64_t bytes_into) const {
  COSR_CHECK(index < record_count());
  COSR_CHECK(bytes_into >= 1 && bytes_into < RecordLength(index));
  const std::uint64_t cut = RecordStart(index) + bytes_into;
  return std::vector<std::uint8_t>(data_.begin(), data_.begin() + cut);
}

}  // namespace cosr
