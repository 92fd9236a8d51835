#ifndef KELPIE_MODELS_ROTATE_H_
#define KELPIE_MODELS_ROTATE_H_

#include "math/matrix.h"
#include "models/embedding_model.h"

namespace kelpie {

/// RotatE (Sun et al., ICLR 2019): entities live in ℂ^k and each relation
/// is a rotation — a vector of phases θ with unit-modulus elements e^{iθ}:
///
///   φ(h, r, t) = -|| h ∘ e^{iθ_r} - t ||₂
///
/// Unlike TransE, rotations can model symmetric (θ = π), inverse
/// (θ' = -θ) and compositional (θ'' = θ + θ') relations, which is why it
/// is included as an extension beyond the paper's three models: it gives
/// the framework a geometric model that does not collapse on WN18RR.
/// Trained with pairwise ranking loss over uniformly corrupted negatives
/// and plain SGD (the original's self-adversarial weighting is omitted —
/// a documented simplification; see DESIGN.md §3).
///
/// Storage: entity rows are [real half | imaginary half] (entity_dim() ==
/// 2k, TrainConfig::dim must be even); relation rows store the k phases.
class RotatE final : public EmbeddingModel {
 public:
  RotatE(size_t num_entities, size_t num_relations, TrainConfig config);

  std::string_view Name() const override { return "RotatE"; }
  size_t num_relations() const override {
    return relation_phases_.rows();
  }

  /// Complex rank k (= dim / 2).
  size_t rank() const { return entity_dim() / 2; }

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
  void TailComposite(std::span<const float> head, RelationId r,
                     std::span<float> out) const override {
    Rotate(head, r, out);
  }
  void HeadComposite(RelationId r, std::span<const float> tail,
                     std::span<float> out) const override {
    RotateInverse(tail, r, out);
  }

 private:
  /// out = h rotated by relation r's phases (2k floats).
  void Rotate(std::span<const float> h, RelationId r,
              std::span<float> out) const;
  /// out = t rotated by the *inverse* of r (used for head queries: the
  /// rotation is an isometry, so ||e∘r - t|| == ||e - t∘r⁻¹||).
  void RotateInverse(std::span<const float> t, RelationId r,
                     std::span<float> out) const;

  Matrix relation_phases_;  // num_relations x k; entity rows are 2k wide
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_ROTATE_H_
