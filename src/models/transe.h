#ifndef KELPIE_MODELS_TRANSE_H_
#define KELPIE_MODELS_TRANSE_H_

#include "math/matrix.h"
#include "models/embedding_model.h"

namespace kelpie {

/// TransE (Bordes et al., NeurIPS 2013): the pioneering geometric model.
/// Relations are translations in the embedding space; the score is the
/// negated L2 distance  φ(h, r, t) = -||h + r - t||₂  (higher = better).
/// Trained with pairwise ranking loss over uniformly corrupted negatives,
/// plain SGD, and the original paper's unit-ball normalization of entity
/// embeddings.
class TransE final : public EmbeddingModel {
 public:
  TransE(size_t num_entities, size_t num_relations, TrainConfig config);

  std::string_view Name() const override { return "TransE"; }
  size_t num_relations() const override {
    return relation_embeddings_.rows();
  }

  Status Train(const Dataset& dataset, Rng& rng,
               const TrainControl& control = {}) override;

  std::vector<float> ScoreGradWrtHead(const Triple& t) const override;
  std::vector<float> ScoreGradWrtTail(const Triple& t) const override;
  using LinkPredictionModel::PostTrainMimic;
  std::vector<float> PostTrainMimic(const Dataset& dataset, EntityId entity,
                                    const std::vector<Triple>& facts,
                                    Rng& rng,
                                    std::span<const float> warm_init)
      const override;

 protected:
  /// h + r; candidate tails are scored by their distance to it.
  void TailComposite(std::span<const float> head, RelationId r,
                     std::span<float> out) const override;
  /// t - r, since φ(e, r, t) = -||e - (t - r)||.
  void HeadComposite(RelationId r, std::span<const float> tail,
                     std::span<float> out) const override;

 private:
  Matrix relation_embeddings_;
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_TRANSE_H_
