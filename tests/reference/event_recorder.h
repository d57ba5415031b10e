#ifndef COSR_TESTS_REFERENCE_EVENT_RECORDER_H_
#define COSR_TESTS_REFERENCE_EVENT_RECORDER_H_

// Test-side recorder of every physical event a Space reports, in order.
// The identity tests compare two recordings event for event; the golden
// flush-stream test hashes one. Each ApplyMoves batch is recorded as a
// batch marker ('B', the record count in `id`) followed by its moves, so a
// change in how moves are grouped into batches is visible too. Checkpoint
// sequence numbers are omitted on purpose: a sharded parent carries no
// manager, so its seqs differ from a managed reference space even when the
// checkpoints themselves align.

#include <string>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/space.h"

namespace cosr {

struct Event {
  char kind = '?';  // P(lace) M(ove) R(emove) C(heckpoint) B(atch)
  ObjectId id = kInvalidObjectId;
  Extent a;
  Extent b;

  friend bool operator==(const Event& x, const Event& y) {
    return x.kind == y.kind && x.id == y.id && x.a == y.a && x.b == y.b;
  }
};

class EventRecorder : public SpaceListener {
 public:
  void OnPlace(ObjectId id, const Extent& e) override {
    events.push_back({'P', id, e, Extent{}});
  }
  void OnMove(ObjectId id, const Extent& from, const Extent& to) override {
    events.push_back({'M', id, from, to});
  }
  /// Marks the batch, then fans out to OnMove like the default.
  void OnMoves(const MoveRecord* records, std::size_t count) override {
    events.push_back({'B', static_cast<ObjectId>(count), Extent{}, Extent{}});
    SpaceListener::OnMoves(records, count);
  }
  void OnRemove(ObjectId id, const Extent& e) override {
    events.push_back({'R', id, e, Extent{}});
  }
  void OnCheckpoint(std::uint64_t) override {
    events.push_back({'C', 0, Extent{}, Extent{}});
  }

  std::vector<Event> events;
};

inline std::string Describe(const Event& e) {
  return std::string(1, e.kind) + " id=" + std::to_string(e.id) + " " +
         ToString(e.a) + " -> " + ToString(e.b);
}

}  // namespace cosr

#endif  // COSR_TESTS_REFERENCE_EVENT_RECORDER_H_
