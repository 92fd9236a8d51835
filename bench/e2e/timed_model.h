// Bench-owned tracing for bench_e2e: an in-memory span buffer and a
// LinkPredictionModel decorator that times every call into the model layer
// from outside. Nothing here instruments the library itself.
#ifndef KELPIE_BENCH_E2E_TIMED_MODEL_H_
#define KELPIE_BENCH_E2E_TIMED_MODEL_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "models/model.h"

namespace kelpie::e2e {

/// Span names. The first group are the operation roots the replays open;
/// the second are the model-layer children TimedModel opens.
enum class SpanName : uint8_t {
  kExplain,    // core.explain: one Kelpie extraction
  kCycle,      // xp.cycle: one update + rebuild + evaluate cycle
  kUpdate,     // xp.update: ApplyKgUpdate
  kRebuild,    // kgraph.rebuild: Dataset::WithModifiedTraining
  kEvaluate,   // eval.evaluate: EvaluateTest
  kPostTrain,  // models.post_train: PostTrainMimic
  kSweep,      // models.sweep: the four ScoreAll* sweeps
  kScore,      // models.score: point scores and gradients
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  static constexpr std::array<const char*, static_cast<size_t>(SpanName::kCount)>
      kNames = {"core.explain",   "xp.cycle",          "xp.update",
                "kgraph.rebuild", "eval.evaluate",     "models.post_train",
                "models.sweep",   "models.score"};
  return kNames[static_cast<size_t>(name)];
}

struct SpanRecord {
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint32_t request;
  SpanName name;
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-name totals over a buffer. `self_ns` is each span's duration minus
/// the durations of its direct children.
struct SpanTotals {
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> calls{};
  std::array<double, static_cast<size_t>(SpanName::kCount)> ns{};
  std::array<double, static_cast<size_t>(SpanName::kCount)> self_ns{};
  /// Largest (children - span) / span over root spans: children that
  /// overlap each other or outlast their parent. 0 when the tree is sound.
  double account_err_max = 0.0;

  uint64_t Calls(SpanName n) const { return calls[static_cast<size_t>(n)]; }
  double Ns(SpanName n) const { return ns[static_cast<size_t>(n)]; }
  double SelfNs(SpanName n) const { return self_ns[static_cast<size_t>(n)]; }
};

/// Fixed-capacity span store. Records land in a buffer allocated once up
/// front (pages are touched only as spans arrive) through one atomic slot
/// counter, so recording takes no lock. Spans past the capacity are counted
/// in dropped() and missing from the totals.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity)
      : capacity_(capacity),
        records_(new SpanRecord[capacity]),
        origin_(std::chrono::steady_clock::now()) {}

  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const SpanRecord& record) {
    const size_t slot = size_.fetch_add(1, std::memory_order_relaxed);
    if (slot < capacity_) {
      records_[slot] = record;
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void CountDescriptorCall() {
    descriptor_calls_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t size() const {
    const size_t n = size_.load(std::memory_order_acquire);
    return n < capacity_ ? n : capacity_;
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t descriptor_calls() const {
    return descriptor_calls_.load(std::memory_order_relaxed);
  }
  const SpanRecord& at(size_t i) const { return records_[i]; }

  /// Call once every recording thread has been joined.
  SpanTotals Totals() const;

  /// Writes the spans as a JSON array (no trailing newline).
  void WriteJson(std::FILE* out) const;

  /// The innermost open span and the request being served on this thread.
  static thread_local uint32_t current_parent;
  static thread_local uint32_t current_request;

 private:
  const size_t capacity_;
  std::unique_ptr<SpanRecord[]> records_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint32_t> next_id_{1};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> descriptor_calls_{0};
};

/// RAII span on `buffer`; a no-op when `buffer` is null. Parentage follows
/// the spans open on the constructing thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name) : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    record_.id = buffer_->NextId();
    record_.parent = SpanBuffer::current_parent;
    record_.request = SpanBuffer::current_request;
    record_.name = name;
    SpanBuffer::current_parent = record_.id;
    record_.start_ns = buffer_->NowNs();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    record_.end_ns = buffer_->NowNs();
    SpanBuffer::current_parent = record_.parent;
    buffer_->Record(record_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  SpanRecord record_{};
};

/// Forwards every virtual of LinkPredictionModel to `inner`, opening a span
/// around each call that does work, so the program runs the same code with
/// or without it. The sweep-descriptor and entity-table virtuals are
/// forwarded too (the quantized rank path needs them); descriptor builds
/// are counted, not spanned, because they are a few dozen float ops.
class TimedModel final : public LinkPredictionModel {
 public:
  TimedModel(LinkPredictionModel& inner, SpanBuffer& spans)
      : LinkPredictionModel(inner.config()), inner_(inner), spans_(spans) {}

  using LinkPredictionModel::PostTrainMimic;

  std::string_view Name() const override { return inner_.Name(); }
  size_t num_entities() const override { return inner_.num_entities(); }
  size_t num_relations() const override { return inner_.num_relations(); }
  size_t entity_dim() const override { return inner_.entity_dim(); }

  Status Train(const Dataset& dataset, Rng& rng,
               const TrainControl& control) override {
    return inner_.Train(dataset, rng, control);
  }

  float Score(const Triple& t) const override {
    ScopedSpan span(&spans_, SpanName::kScore);
    return inner_.Score(t);
  }
  void ScoreAllTails(EntityId h, RelationId r,
                     std::span<float> out) const override {
    ScopedSpan span(&spans_, SpanName::kSweep);
    inner_.ScoreAllTails(h, r, out);
  }
  void ScoreAllHeads(RelationId r, EntityId t,
                     std::span<float> out) const override {
    ScopedSpan span(&spans_, SpanName::kSweep);
    inner_.ScoreAllHeads(r, t, out);
  }
  void ScoreAllTailsWithHeadVec(std::span<const float> head_vec, RelationId r,
                                std::span<float> out) const override {
    ScopedSpan span(&spans_, SpanName::kSweep);
    inner_.ScoreAllTailsWithHeadVec(head_vec, r, out);
  }
  void ScoreAllHeadsWithTailVec(RelationId r, std::span<const float> tail_vec,
                                std::span<float> out) const override {
    ScopedSpan span(&spans_, SpanName::kSweep);
    inner_.ScoreAllHeadsWithTailVec(r, tail_vec, out);
  }
  float ScoreWithEntityVec(const Triple& t, EntityId which,
                           std::span<const float> vec) const override {
    ScopedSpan span(&spans_, SpanName::kScore);
    return inner_.ScoreWithEntityVec(t, which, vec);
  }
  std::vector<float> ScoreGradWrtHead(const Triple& t) const override {
    ScopedSpan span(&spans_, SpanName::kScore);
    return inner_.ScoreGradWrtHead(t);
  }
  std::vector<float> ScoreGradWrtTail(const Triple& t) const override {
    ScopedSpan span(&spans_, SpanName::kScore);
    return inner_.ScoreGradWrtTail(t);
  }
  std::vector<float> PostTrainMimic(const Dataset& dataset, EntityId entity,
                                    const std::vector<Triple>& facts, Rng& rng,
                                    std::span<const float> warm_init)
      const override {
    ScopedSpan span(&spans_, SpanName::kPostTrain);
    return inner_.PostTrainMimic(dataset, entity, facts, rng, warm_init);
  }
  std::optional<CandidateSweep> TailSweepWithHeadVec(
      std::span<const float> head_vec, RelationId r) const override {
    spans_.CountDescriptorCall();
    return inner_.TailSweepWithHeadVec(head_vec, r);
  }
  std::optional<CandidateSweep> HeadSweepWithTailVec(
      RelationId r, std::span<const float> tail_vec) const override {
    spans_.CountDescriptorCall();
    return inner_.HeadSweepWithTailVec(r, tail_vec);
  }
  const Matrix* EntityTable() const override { return inner_.EntityTable(); }
  std::shared_ptr<const quant::QuantizedTable> QuantizedEntityTable()
      const override {
    return inner_.QuantizedEntityTable();
  }
  std::span<const float> EntityEmbedding(EntityId e) const override {
    return inner_.EntityEmbedding(e);
  }
  std::span<float> MutableEntityEmbedding(EntityId e) override {
    return inner_.MutableEntityEmbedding(e);
  }
  Status SaveParameters(std::ostream& out) const override {
    return inner_.SaveParameters(out);
  }
  Status LoadParameters(std::istream& in) override {
    return inner_.LoadParameters(in);
  }

 private:
  LinkPredictionModel& inner_;
  SpanBuffer& spans_;
};

}  // namespace kelpie::e2e

#endif  // KELPIE_BENCH_E2E_TIMED_MODEL_H_
