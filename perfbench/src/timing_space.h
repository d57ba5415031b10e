#ifndef PERFBENCH_TIMING_SPACE_H_
#define PERFBENCH_TIMING_SPACE_H_

// The traced run's seams: a Space decorator handed to the sync facades as
// their caller-owned parent, a SpaceListener wrapper for every listener the
// stack registers on it, and a CheckpointDurabilityLog wrapper for the
// per-shard move logs. Each times the calls crossing its interface into a
// SpanTracer, so nested spans (a listener inside ApplyMoves inside a facade
// Insert) come out as self times per layer.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cosr/metrics/latency_histogram.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/space.h"
#include "measure.h"

namespace perfbench {

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, Layer layer) : tracer_(tracer) {
    tracer_->Begin(layer, cosr::MonotonicNanos());
  }
  ~ScopedSpan() { tracer_->End(cosr::MonotonicNanos()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
};

/// Times every callback into the wrapped listener as a kListener span.
class TimingListener final : public cosr::SpaceListener {
 public:
  TimingListener(cosr::SpaceListener* target, SpanTracer* tracer)
      : target_(target), tracer_(tracer) {}

  cosr::SpaceListener* target() const { return target_; }

  void OnPlace(cosr::ObjectId id, const cosr::Extent& extent) override {
    ScopedSpan span(tracer_, Layer::kListener);
    target_->OnPlace(id, extent);
  }
  void OnMove(cosr::ObjectId id, const cosr::Extent& from,
              const cosr::Extent& to) override {
    ScopedSpan span(tracer_, Layer::kListener);
    target_->OnMove(id, from, to);
  }
  void OnMoves(const cosr::MoveRecord* records, std::size_t count) override {
    ScopedSpan span(tracer_, Layer::kListener);
    target_->OnMoves(records, count);
  }
  void OnRemove(cosr::ObjectId id, const cosr::Extent& extent) override {
    ScopedSpan span(tracer_, Layer::kListener);
    target_->OnRemove(id, extent);
  }
  void OnCheckpoint(std::uint64_t seq) override {
    ScopedSpan span(tracer_, Layer::kListener);
    target_->OnCheckpoint(seq);
  }

 private:
  cosr::SpaceListener* target_;
  SpanTracer* tracer_;
};

/// Times LogCheckpoint (record append, group-commit sync, compaction) of
/// the wrapped shard log as a kLogCheckpoint span.
class TimingCheckpointLog final : public cosr::CheckpointDurabilityLog {
 public:
  TimingCheckpointLog(cosr::CheckpointDurabilityLog* target,
                      SpanTracer* tracer)
      : target_(target), tracer_(tracer) {}

  void LogCheckpoint(std::uint64_t seq) override {
    ScopedSpan span(tracer_, Layer::kLogCheckpoint);
    target_->LogCheckpoint(seq);
  }

 private:
  cosr::CheckpointDurabilityLog* target_;
  SpanTracer* tracer_;
};

/// A Space that forwards to an inner Space and times each call. O(1) field
/// reads (live_volume, object_count, checkpoint_manager) are forwarded
/// untimed; everything else is one span and one counted call.
class TimingSpace final : public cosr::Space {
 public:
  TimingSpace(cosr::Space* inner, SpanTracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  ~TimingSpace() override {
    for (const auto& wrapper : wrappers_) inner_->RemoveListener(wrapper.get());
  }

  /// A lookup issued by the benchmark itself (kSpaceLookup), kept apart
  /// from the reads the stack issues through TryExtentOf.
  bool Lookup(cosr::ObjectId id, cosr::Extent* extent) {
    ScopedSpan span(tracer_, Layer::kSpaceLookup);
    return inner_->TryExtentOf(id, extent);
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t moves() const { return moves_; }

  void AddListener(cosr::SpaceListener* listener) override {
    wrappers_.push_back(std::make_unique<TimingListener>(listener, tracer_));
    inner_->AddListener(wrappers_.back().get());
  }
  void RemoveListener(cosr::SpaceListener* listener) override {
    for (auto it = wrappers_.begin(); it != wrappers_.end(); ++it) {
      if ((*it)->target() == listener) {
        inner_->RemoveListener(it->get());
        wrappers_.erase(it);
        return;
      }
    }
  }

  bool TryPlace(cosr::ObjectId id, const cosr::Extent& extent) override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpacePlace);
    return inner_->TryPlace(id, extent);
  }
  void Move(cosr::ObjectId id, const cosr::Extent& to) override {
    ++calls_;
    ++moves_;
    ScopedSpan span(tracer_, Layer::kSpaceApplyMoves);
    inner_->Move(id, to);
  }
  using cosr::Space::ApplyMoves;
  void ApplyMoves(const cosr::MovePlan* plans, std::size_t count) override {
    ++calls_;
    moves_ += count;
    ScopedSpan span(tracer_, Layer::kSpaceApplyMoves);
    inner_->ApplyMoves(plans, count);
  }
  bool TryRemove(cosr::ObjectId id, cosr::Extent* removed) override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceRemove);
    return inner_->TryRemove(id, removed);
  }
  void Checkpoint() override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceCheckpoint);
    inner_->Checkpoint();
  }

  bool contains(cosr::ObjectId id) const override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceRead);
    return inner_->contains(id);
  }
  cosr::Extent extent_of(cosr::ObjectId id) const override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceRead);
    return inner_->extent_of(id);
  }
  bool TryExtentOf(cosr::ObjectId id, cosr::Extent* extent) const override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceRead);
    return inner_->TryExtentOf(id, extent);
  }
  std::uint64_t footprint() const override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceRead);
    return inner_->footprint();
  }
  std::uint64_t footprint_in(std::uint64_t lo,
                             std::uint64_t hi) const override {
    ++calls_;
    ScopedSpan span(tracer_, Layer::kSpaceRead);
    return inner_->footprint_in(lo, hi);
  }

  std::uint64_t live_volume() const override { return inner_->live_volume(); }
  std::size_t object_count() const override { return inner_->object_count(); }
  cosr::CheckpointManager* checkpoint_manager() const override {
    return inner_->checkpoint_manager();
  }
  std::vector<std::pair<cosr::ObjectId, cosr::Extent>> Snapshot()
      const override {
    return inner_->Snapshot();
  }
  bool SelfCheck() const override { return inner_->SelfCheck(); }

 private:
  cosr::Space* inner_;
  SpanTracer* tracer_;
  mutable std::uint64_t calls_ = 0;
  std::uint64_t moves_ = 0;
  std::vector<std::unique_ptr<TimingListener>> wrappers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_SPACE_H_
