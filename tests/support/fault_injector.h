#ifndef COSR_TESTS_SUPPORT_FAULT_INJECTOR_H_
#define COSR_TESTS_SUPPORT_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/durability/log_sink.h"

namespace cosr {

/// Deterministically derives crashed log images from a completed log
/// stream — a MemoryLogSink's live stream, or one of the pre-compaction
/// streams it retired into discarded_streams() (a crash before a
/// compaction's commit point leaves exactly such a stream on the medium,
/// so mid-compaction crashes are fuzzed by cutting them too). The stream's
/// record boundaries turn into "what the medium holds after a crash at
/// point X" byte streams for RecoveryManager to chew on. Each image is the
/// plain prefix up to the cut — a realizable crash outcome, because the
/// sync frontier at the moment the cut point was written always lies at or
/// inside the prefix (syncs only happen at checkpoint records; under a
/// coalescing GroupCommitPolicy the frontier simply sits some checkpoints
/// earlier, and the unsynced checkpoint records between it and the cut are
/// themselves a legal crash surface — recovery may land on any of them).
/// No randomness lives here — callers enumerate indices/offsets, so a fuzz
/// run is reproducible from its seed alone.
class FaultInjector {
 public:
  /// `data`/`record_ends` must outlive the injector and stop changing.
  FaultInjector(const std::vector<std::uint8_t>& data,
                const std::vector<std::uint64_t>& record_ends)
      : data_(data), record_ends_(record_ends) {}
  /// Convenience: the sink's live stream. The sink must receive no
  /// further appends.
  explicit FaultInjector(const MemoryLogSink& sink)
      : FaultInjector(sink.data(), sink.record_ends()) {}

  std::size_t record_count() const { return record_ends_.size(); }
  std::uint64_t RecordStart(std::size_t index) const {
    return index == 0 ? 0 : record_ends_[index - 1];
  }
  std::uint64_t RecordLength(std::size_t index) const {
    return record_ends_[index] - RecordStart(index);
  }
  /// First byte of record `index` (for peeking at the type tag).
  std::uint8_t RecordType(std::size_t index) const {
    return data_[RecordStart(index)];
  }

  /// The surviving stream for a clean crash immediately after record
  /// `index` reached the medium.
  std::vector<std::uint8_t> CrashAfterRecord(std::size_t index) const;

  /// The surviving stream when the crash tears record `index` apart:
  /// only `bytes_into` of its bytes (1 <= bytes_into < length) reached the
  /// medium: a torn final record, or a torn move batch when the record is
  /// one and the cut lands in its payload.
  std::vector<std::uint8_t> TornRecord(std::size_t index,
                                       std::uint64_t bytes_into) const;

 private:
  const std::vector<std::uint8_t>& data_;
  const std::vector<std::uint64_t>& record_ends_;
};

}  // namespace cosr

#endif  // COSR_TESTS_SUPPORT_FAULT_INJECTOR_H_
