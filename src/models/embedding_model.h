#ifndef KELPIE_MODELS_EMBEDDING_MODEL_H_
#define KELPIE_MODELS_EMBEDDING_MODEL_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "math/matrix.h"
#include "math/quant.h"
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
class EmbeddingModel : public LinkPredictionModel {
 public:
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

 protected:
  EmbeddingModel(size_t num_entities, TrainConfig config,
                 CandidateSweep::Kernel kernel);

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

  CandidateSweep::Kernel kernel_;
  quant::TableCache quant_cache_;
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_EMBEDDING_MODEL_H_
