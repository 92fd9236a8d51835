#ifndef KELPIE_MODELS_BILINEAR_H_
#define KELPIE_MODELS_BILINEAR_H_

#include "math/matrix.h"
#include "ml/optimizer.h"
#include "models/embedding_model.h"

namespace kelpie {

/// Base class for models whose score factorizes as a dot product against
/// the candidate entity on either side:
///
///   φ(h, r, t) = <TailQuery(h, r), t> = <h, HeadQuery(r, t)>
///
/// ComplEx and DistMult are both of this form. The class implements:
///  - the composites EmbeddingModel scores with (TailQuery, HeadQuery);
///  - score gradients w.r.t. entity embeddings;
///  - full training with the multiclass negative log-likelihood loss over
///    both prediction directions and N3 regularization, optimized with
///    per-row Adagrad (the Lacroix et al. recipe the paper's ComplEx uses);
///  - post-training of mimic embeddings under the same loss with every
///    non-mimic parameter frozen.
///
/// Subclasses provide the two query maps and their backward passes.
class BilinearModel : public EmbeddingModel {
 public:
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
  Status SaveParameters(std::ostream& out) const override;
  Status LoadParameters(std::istream& in) override;

 protected:
  BilinearModel(size_t num_entities, size_t num_relations,
                TrainConfig config);

  void TailComposite(std::span<const float> head, RelationId r,
                     std::span<float> out) const final {
    TailQuery(head, relation_embeddings_.Row(static_cast<size_t>(r)), out);
  }
  void HeadComposite(RelationId r, std::span<const float> tail,
                     std::span<float> out) const final {
    HeadQuery(relation_embeddings_.Row(static_cast<size_t>(r)), tail, out);
  }

  /// out = TailQuery(h, r); all spans have entity_dim() floats.
  virtual void TailQuery(std::span<const float> h, std::span<const float> r,
                         std::span<float> out) const = 0;
  /// out = HeadQuery(r, t).
  virtual void HeadQuery(std::span<const float> r, std::span<const float> t,
                         std::span<float> out) const = 0;
  /// Given dL/dq for q = TailQuery(h, r), accumulates dL/dh into `gh` and
  /// dL/dr into `gr`. Either may be empty to skip.
  virtual void BackpropTailQuery(std::span<const float> h,
                                 std::span<const float> r,
                                 std::span<const float> dq,
                                 std::span<float> gh,
                                 std::span<float> gr) const = 0;
  /// Given dL/dw for w = HeadQuery(r, t), accumulates dL/dr and dL/dt.
  virtual void BackpropHeadQuery(std::span<const float> r,
                                 std::span<const float> t,
                                 std::span<const float> dw,
                                 std::span<float> gr,
                                 std::span<float> gt) const = 0;

  Matrix relation_embeddings_;

 private:
  /// Adds the N3 regularization gradient λ·3·|x|·x to `grad`.
  void AddN3Gradient(std::span<const float> row, std::span<float> grad) const;
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_BILINEAR_H_
