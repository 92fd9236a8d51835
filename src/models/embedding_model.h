#ifndef KELPIE_MODELS_EMBEDDING_MODEL_H_
#define KELPIE_MODELS_EMBEDDING_MODEL_H_

#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "math/matrix.h"
#include "math/quant.h"
#include "math/vec.h"
#include "ml/embedding_table.h"
#include "models/model.h"

namespace kelpie {

/// Shared base of the built-in models. Every one of them scores a candidate
/// entity e the same way: build one composite query vector q from the
/// fixed side of the query, then apply the model's kernel to (row_e, q):
///
///   kDot:             φ = Dot(row_e, q) [+ bias_e]
///   kSquaredDistance: φ = -sqrt(SquaredDistance(row_e, q))
///
/// A subclass supplies only the two composites (TailComposite for <h, r, ?>,
/// HeadComposite for <?, r, t>), its kernel kind, and — ConvE only — the
/// per-entity bias. This class owns the entity table and implements every
/// scoring entry point once: the point scores, the four ScoreAll* sweeps
/// and the two CandidateSweep descriptors all run the same composite
/// through the same simd kernel, so they agree bit for bit by construction
/// (the sweep kernels are per-row bit-identical to Dot / SquaredDistance,
/// DESIGN.md §11).
///
/// Score and ScoreWithEntityVec use the tail composite; the head sweeps use
/// the head composite. The two directions are equal in exact arithmetic
/// but may round differently, except where the head composite is itself a
/// tail composite (ConvE's reciprocal relation).
///
/// It also owns the training harness around each model's math: the list of
/// learned tensors (AddTensor), which SaveParameters/LoadParameters and the
/// guard's snapshots all walk; the guarded epoch run (RunGuardedTraining);
/// and the start and epoch walk of a mimic post-training (StartMimic,
/// ForEachMimicStep).
class EmbeddingModel : public LinkPredictionModel {
 public:
  // Copying would leave the tensor list pointing into the source.
  EmbeddingModel(const EmbeddingModel&) = delete;
  EmbeddingModel& operator=(const EmbeddingModel&) = delete;

  size_t num_entities() const final { return entity_embeddings_.rows(); }
  size_t entity_dim() const final { return entity_embeddings_.cols(); }

  float Score(const Triple& t) const final;
  void ScoreAllTails(EntityId h, RelationId r,
                     std::span<float> out) const final;
  void ScoreAllHeads(RelationId r, EntityId t,
                     std::span<float> out) const final;
  void ScoreAllTailsWithHeadVec(std::span<const float> head_vec, RelationId r,
                                std::span<float> out) const final;
  void ScoreAllHeadsWithTailVec(RelationId r, std::span<const float> tail_vec,
                                std::span<float> out) const final;
  /// An overridden tail gets no bias: the bias belongs to the stored
  /// entity, not to the vector standing in for it.
  float ScoreWithEntityVec(const Triple& t, EntityId which,
                           std::span<const float> vec) const final;

  std::optional<CandidateSweep> TailSweepWithHeadVec(
      std::span<const float> head_vec, RelationId r) const final;
  std::optional<CandidateSweep> HeadSweepWithTailVec(
      RelationId r, std::span<const float> tail_vec) const final;
  const Matrix* EntityTable() const final { return &entity_embeddings_; }
  std::shared_ptr<const quant::QuantizedTable> QuantizedEntityTable()
      const final {
    return quant_cache_.Get(entity_embeddings_);
  }

  std::span<const float> EntityEmbedding(EntityId e) const final {
    return entity_embeddings_.Row(static_cast<size_t>(e));
  }
  std::span<float> MutableEntityEmbedding(EntityId e) final {
    return entity_embeddings_.Row(static_cast<size_t>(e));
  }

  /// Writes the tensor list in order: a matrix through WriteMatrix, a flat
  /// vector through WriteFloats.
  Status SaveParameters(std::ostream& out) const final;
  /// Reads every tensor and checks every shape before it replaces any.
  Status LoadParameters(std::istream& in) final;

 protected:
  /// `entity_init` and `entity_init_scale` give the distribution the entity
  /// table (InitEntityTable) and a cold mimic row (StartMimic) are drawn
  /// from. Registers the entity table as the first tensor.
  EmbeddingModel(size_t num_entities, TrainConfig config,
                 CandidateSweep::Kernel kernel, InitScheme entity_init,
                 double entity_init_scale);

  /// Appends a learned tensor to the list; each model's constructor names
  /// its tensors once, in file order.
  void AddTensor(Matrix& matrix) { tensors_.push_back({&matrix, nullptr}); }
  void AddTensor(std::vector<float>& flat) {
    tensors_.push_back({nullptr, &flat});
  }

  /// Draws the entity table from the model's initial distribution.
  void InitEntityTable(Rng& rng) {
    InitMatrix(entity_embeddings_, entity_init_, entity_init_scale_, rng);
  }

  /// Runs the epochs of `hooks` under RunGuardedEpochs, as TrainConfig and
  /// `control` configure it, and keeps the report for last_train_report().
  /// The guard's params are the tensor list followed by `hooks.params` (the
  /// optimizer state); `rng` is the stream a resume restores.
  Status RunGuardedTraining(GuardedTrainHooks hooks, Rng& rng,
                            const TrainControl& control);

  /// Where a post-training starts.
  struct MimicStart {
    std::vector<float> row;
    /// TrainConfig::post_training_lr, or learning_rate when that is <= 0.
    float lr = 0.0f;
  };
  /// The mimic's first row is `warm_init` when it holds entity_dim floats
  /// (drawing nothing), else a row drawn like each row of InitEntityTable.
  MimicStart StartMimic(std::span<const float> warm_init, Rng& rng) const;

  /// Calls `step(i)` for every fact index i < `num_facts`, in a fresh
  /// shuffle of the previous epoch's order for each post-training epoch.
  template <typename Step>
  void ForEachMimicStep(size_t num_facts, Rng& rng, Step&& step) const {
    std::vector<size_t> order(num_facts);
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t epoch = 0; epoch < config_.post_training_epochs; ++epoch) {
      rng.Shuffle(order);
      for (size_t idx : order) step(idx);
    }
  }

  /// Per-example gradient clipping to TrainConfig::grad_clip_norm, for the
  /// trainers whose gradients can grow without bound. Activations are
  /// tallied here (the clip sits in the innermost gradient loop) and added
  /// to kelpie_train_grad_clip_total once, when the clipper is destroyed.
  class GradientClip {
   public:
    explicit GradientClip(float norm) : norm_(norm) {}
    ~GradientClip();
    GradientClip(const GradientClip&) = delete;
    GradientClip& operator=(const GradientClip&) = delete;

    void operator()(std::span<float> grad) {
      if (norm_ > 0.0f && ProjectToL2Ball(grad, norm_)) ++activations_;
    }

   private:
    float norm_;
    uint64_t activations_ = 0;
  };

  /// out = the query of the tail sweep <head, r, ?> (entity_dim floats).
  virtual void TailComposite(std::span<const float> head, RelationId r,
                             std::span<float> out) const = 0;
  /// out = the query of the head sweep <?, r, tail>.
  virtual void HeadComposite(RelationId r, std::span<const float> tail,
                             std::span<float> out) const = 0;

  Matrix entity_embeddings_;
  /// Per-entity score bias b_e added after the dot kernel (ConvE); empty
  /// for models without one.
  std::vector<float> entity_bias_;

 private:
  /// The kernel applied to one candidate row: the per-row form of Sweep().
  float RowScore(std::span<const float> row,
                 std::span<const float> query) const;
  /// out[e] = φ for every entity row under `query`, bias included.
  void Sweep(std::span<const float> query, std::span<float> out) const;
  CandidateSweep Descriptor() const;

  /// One learned tensor: exactly one of the two is set.
  struct Tensor {
    Matrix* matrix = nullptr;
    std::vector<float>* flat = nullptr;
  };

  CandidateSweep::Kernel kernel_;
  InitScheme entity_init_;
  double entity_init_scale_;
  std::vector<Tensor> tensors_;
  quant::TableCache quant_cache_;
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_EMBEDDING_MODEL_H_
