#ifndef KELPIE_MODELS_CONVE_H_
#define KELPIE_MODELS_CONVE_H_

#include "math/matrix.h"
#include "ml/conv2d.h"
#include "models/embedding_model.h"

namespace kelpie {

/// ConvE (Dettmers et al., AAAI 2018): the deep-learning representative.
/// The head and relation embeddings are reshaped to 2D, stacked into an
/// image, passed through a convolution, ReLU, a fully-connected projection
/// and another ReLU; the result is dot-multiplied with the tail embedding
/// and a per-entity output bias is added:
///
///   φ(h, r, t) = < ReLU(FC(ReLU(Conv([h̄ ; r̄])))), t > + b_t
///
/// Trained with the original protocol: reciprocal-relation augmentation
/// (every fact also trains <t, r_inv, h>, and head queries are answered as
/// tail queries on r_inv), 1-N binary cross-entropy with label smoothing,
/// and the paper's three dropouts (input / feature map / hidden) realized
/// with deterministic seeded masks. Batch norm is replaced by the seeded
/// dropout + Adagrad/Adam combination (DESIGN.md §3); the head/relation
/// image uses row-interleaved stacking so every convolution window spans
/// both inputs.
class ConvE final : public EmbeddingModel {
 public:
  ConvE(size_t num_entities, size_t num_relations, TrainConfig config);

  std::string_view Name() const override { return "ConvE"; }
  size_t num_relations() const override { return num_base_relations_; }

  /// Id of the reciprocal relation r_inv used by the 1-N training protocol
  /// and by head queries.
  RelationId ReciprocalOf(RelationId r) const {
    return r + static_cast<RelationId>(num_base_relations_);
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

  /// Per-entity output bias b_e (exposed for tests).
  const std::vector<float>& entity_bias() const { return entity_bias_; }

 protected:
  /// The inference forward pass ReLU(FC(ReLU(Conv([h̄ ; r̄])))).
  void TailComposite(std::span<const float> head, RelationId r,
                     std::span<float> out) const override;
  /// Head queries use the reciprocal relation: the candidate heads are the
  /// "tails" of <t, r_inv, ?>, exactly as in training. This is also what
  /// makes head ranking as cheap as tail ranking (one convolution).
  void HeadComposite(RelationId r, std::span<const float> tail,
                     std::span<float> out) const override {
    TailComposite(tail, ReciprocalOf(r), out);
  }

 private:
  /// Intermediate activations of one (head, relation) forward pass, kept
  /// for the backward pass. When dropout is active (training only), the
  /// masks hold inverted-dropout multipliers (0 or 1/(1-p)).
  struct ForwardCache {
    std::vector<float> image;     // interleaved [h̄ ; r̄], (2*rh) x rw
    std::vector<float> conv_out;  // post-ReLU (post-dropout) activations
    std::vector<float> v;         // post-ReLU (post-dropout) FC output
    std::vector<float> image_mask;
    std::vector<float> conv_mask;
    std::vector<float> v_mask;
    bool has_dropout = false;
  };

  /// Gradient accumulators for the shared (non-embedding) parameters.
  struct SharedGrads {
    std::vector<float> conv_w;
    std::vector<float> conv_b;
    std::vector<float> fc_w;
    std::vector<float> fc_b;
    void Resize(const Conv2d& conv, const DenseLayer& fc);
    void Zero();
  };

  /// Runs the conv/FC pipeline on explicit head/relation vectors. When
  /// `dropout_rng` is non-null the original paper's three dropouts (input,
  /// feature map, hidden) are applied with deterministic seeded masks;
  /// inference passes use no dropout.
  void ForwardMlp(std::span<const float> head_vec,
                  std::span<const float> rel_vec, ForwardCache& cache,
                  Rng* dropout_rng = nullptr) const;

  /// Backpropagates dL/dv through the pipeline. Accumulates into the
  /// optional outputs (pass empty spans to skip shared-weight grads).
  void BackwardMlp(const ForwardCache& cache, std::span<const float> dv,
                   SharedGrads* shared, std::span<float> grad_head,
                   std::span<float> grad_rel) const;

  size_t image_h() const { return 2 * config_.reshape_height; }
  size_t image_w() const { return config_.dim / config_.reshape_height; }

  size_t num_base_relations_ = 0;
  Matrix relation_embeddings_;
  Conv2d conv_;
  DenseLayer fc_;
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_CONVE_H_
