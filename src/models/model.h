#ifndef KELPIE_MODELS_MODEL_H_
#define KELPIE_MODELS_MODEL_H_

#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kgraph/dataset.h"
#include "kgraph/triple.h"
#include "math/rng.h"
#include "ml/train_guard.h"

namespace kelpie {

class Matrix;
namespace quant {
struct QuantizedTable;
}  // namespace quant

/// Closed-form description of an all-candidates sweep: one composite query
/// vector, one entity-table kernel, one fixed transform. The built-in
/// models derive from EmbeddingModel (models/embedding_model.h), whose one
/// routine builds this descriptor and also runs every ScoreAll* sweep and
/// point score from it, so for each entity e the per-row value
///   kDot:             fl(Dot(row_e, query)) [+ bias_e]
///   kSquaredDistance: -sqrt(fl(SquaredDistance(row_e, query)))
/// evaluated through the simd kernels equals the sweep output bit for bit.
/// The quantized-shortlist rank path (eval/ranking.cc) relies on this: it
/// classifies candidates against certified int8 bounds and re-scores only
/// the uncertain band per row.
struct CandidateSweep {
  enum class Kernel { kDot, kSquaredDistance };
  Kernel kernel = Kernel::kDot;
  /// The composite query vector (entity_dim floats).
  std::vector<float> query;
  /// Per-entity additive bias applied after the dot kernel (ConvE's b_e;
  /// added as `score += 1.0f * bias[e]`, matching the sweep's Axpy). Empty
  /// for models without one. Points into model-owned storage and is only
  /// valid while the model is alive and unmodified.
  std::span<const float> bias;
};

/// Hyperparameters shared by all model trainers. Every model reads the
/// fields that apply to its architecture and ignores the rest; the factory
/// (factory.h) provides per-model, per-dataset defaults.
struct TrainConfig {
  /// Entity/relation embedding width in floats. For ComplEx this is twice
  /// the complex rank ([real | imaginary] halves).
  size_t dim = 32;
  size_t epochs = 40;
  size_t batch_size = 512;
  float learning_rate = 0.1f;
  /// Regularization weight: N3 for ComplEx/DistMult, L2 elsewhere.
  float regularization = 0.0f;

  // Pairwise-ranking specifics (TransE).
  float margin = 2.0f;
  int negatives_per_positive = 5;

  // ConvE specifics.
  size_t conv_channels = 8;
  size_t conv_kernel = 3;
  /// Adam learning rate of the shared conv/FC weights (embeddings use
  /// `learning_rate`).
  float conv_lr = 0.01f;
  /// Height of the 2D reshape of an embedding; dim must be divisible by it.
  size_t reshape_height = 4;
  float label_smoothing = 0.1f;
  /// The original ConvE's three dropout rates (training-time only, with
  /// deterministic seeded masks).
  float input_dropout = 0.2f;
  float feature_dropout = 0.2f;
  float hidden_dropout = 0.3f;

  // Post-training (Relevance Engine) specifics.
  size_t post_training_epochs = 30;
  /// Learning rate for post-training; <= 0 means "reuse learning_rate".
  float post_training_lr = -1.0f;

  /// Route embedding-table gradients through the sparse optimizers
  /// (ml/optimizer.h, SparseRowAdagrad): per-row accumulator state
  /// materializes lazily for touched rows instead of being allocated for
  /// the whole table. The step arithmetic is identical, so flipping this
  /// changes memory behavior and checkpoint layout, never parameter bytes
  /// (sparse ≡ dense, byte for byte — asserted per model by the
  /// equivalence suite). Dense layers (ConvE's conv/FC Adam) are
  /// unaffected. Deliberately excluded from model-file serialization and
  /// the train fingerprint: models trained either way are interchangeable.
  bool sparse_updates = false;

  // Robustness guardrails (see ml/train_guard.h for semantics).
  /// Check the per-epoch loss proxy and all parameters/optimizer state for
  /// finiteness after every epoch. Off = no scans, no snapshots, no
  /// recovery.
  bool check_finite = true;
  /// On a non-finite epoch, rewind to the last finite state, back off the
  /// learning rate, and retry; when false, Train() returns Aborted instead.
  bool recover_on_divergence = true;
  /// Rewind-and-retry budget per Train() call.
  int max_recoveries = 3;
  /// Learning-rate scale multiplier applied on each recovery.
  float lr_backoff = 0.5f;
  /// When > 0, clip per-example gradient vectors to this L2 norm in the
  /// trainers that can produce unbounded gradients (ComplEx/DistMult,
  /// ConvE). TransE and RotatE use unit-norm residual directions and are
  /// bounded by construction. 0 disables clipping.
  float grad_clip_norm = 0.0f;
};

/// Abstract embedding-based link-prediction model.
///
/// This is the single surface the rest of the library sees. It exposes what
/// the paper's framework requires of any model:
///  - the scoring function φ (higher = more plausible), over stored
///    embeddings and over "override" vectors standing in for an entity;
///  - batched all-candidates scoring for ranking;
///  - ∂φ/∂(entity embedding), needed by the Data Poisoning and Criage
///    baselines;
///  - full training (used for original models and end-to-end retraining);
///  - *post-training* (Section 4.2): training one fresh embedding row — a
///    mimic — on a chosen fact set while every other parameter is frozen.
class LinkPredictionModel {
 public:
  virtual ~LinkPredictionModel() = default;

  /// Short architecture name ("TransE", "ComplEx", "ConvE", ...).
  virtual std::string_view Name() const = 0;

  virtual size_t num_entities() const = 0;
  virtual size_t num_relations() const = 0;
  /// Floats per entity embedding row.
  virtual size_t entity_dim() const = 0;

  const TrainConfig& config() const { return config_; }

  /// Trains from random initialization on `dataset.train()`; any previous
  /// parameters are discarded. Deterministic given `rng`'s state.
  ///
  /// Runs under the guardrails configured in TrainConfig (finiteness
  /// checks, divergence rewind + learning-rate backoff). Returns
  /// `Status::Aborted` when training diverges and recovery is disabled or
  /// its budget is exhausted; the parameters are then the last finite
  /// state, never NaN/Inf garbage. Not marked [[nodiscard]]: call sites
  /// that train with known-stable configs may ignore the result, and a
  /// diverged model still holds finite parameters.
  ///
  /// `control` optionally wires in crash-safe checkpointing and cooperative
  /// cancellation (ml/checkpoint.h, ml/train_guard.h). The default —
  /// no checkpointer, never cancelled — is exactly the historical behavior.
  /// With a checkpointer in resume mode, a run interrupted at any point
  /// (`kill -9` included) and re-run with the same dataset/config/seed
  /// converges to bitwise-identical final parameters.
  virtual Status Train(const Dataset& dataset, Rng& rng,
                       const TrainControl& control = {}) = 0;

  /// Guardrail report (epochs run, recoveries, backoff events) of the most
  /// recent Train() call on this model. Empty before the first call.
  const TrainReport& last_train_report() const { return last_train_report_; }

  /// φ(h, r, t) with stored embeddings.
  virtual float Score(const Triple& t) const = 0;

  /// Writes φ(h, r, e) for every entity e into `out`
  /// (out.size() == num_entities()).
  virtual void ScoreAllTails(EntityId h, RelationId r,
                             std::span<float> out) const = 0;

  /// Writes the head-ranking score of every candidate entity e for the
  /// query <?, r, t> into `out`. For most models this is φ(e, r, t);
  /// models trained with reciprocal relations (ConvE) implement it as the
  /// inverse tail query φ(t, r_inv, e), matching their training protocol.
  virtual void ScoreAllHeads(RelationId r, EntityId t,
                             std::span<float> out) const = 0;

  /// ScoreAllTails with the head embedding replaced by `head_vec`
  /// (entity_dim floats). This is how mimic entities are evaluated.
  virtual void ScoreAllTailsWithHeadVec(std::span<const float> head_vec,
                                        RelationId r,
                                        std::span<float> out) const = 0;

  /// ScoreAllHeads with the tail embedding replaced by `tail_vec`.
  virtual void ScoreAllHeadsWithTailVec(RelationId r,
                                        std::span<const float> tail_vec,
                                        std::span<float> out) const = 0;

  /// φ(t) where the embedding of entity `which` is `vec` instead of the
  /// stored row. If `which` appears on both sides, `vec` is used for both.
  virtual float ScoreWithEntityVec(const Triple& t, EntityId which,
                                   std::span<const float> vec) const = 0;

  /// ∂φ(t)/∂h — gradient of the score w.r.t. the head embedding, evaluated
  /// at the stored embeddings. entity_dim floats.
  virtual std::vector<float> ScoreGradWrtHead(const Triple& t) const = 0;

  /// ∂φ(t)/∂t (tail embedding).
  virtual std::vector<float> ScoreGradWrtTail(const Triple& t) const = 0;

  /// Post-training (the Relevance Engine primitive): returns a freshly
  /// initialized embedding row trained on `facts` — in which every mention
  /// of `entity` denotes the mimic — with all other parameters frozen.
  ///
  /// Dataset contract: implementations may read `dataset`'s entity count
  /// (the pool sampled negatives are drawn from), never its facts — `facts`
  /// is the whole training signal. Incremental updates (xp/update.h) rely
  /// on this: they post-train against the pre-update dataset with the
  /// updated fact lists, without building the updated dataset.
  ///
  /// Seeding contract: implementations must draw *all* randomness
  /// (initialization, shuffling, sampled negatives, dropout masks) from
  /// `rng` and must not touch mutable shared state, so that the mimic is a
  /// pure function of (model parameters, entity, facts, rng state) and the
  /// call is safe to run concurrently with other post-trainings. The
  /// Relevance Engine seeds `rng` from (engine seed, entity, fact set)
  /// alone, which makes parallel extraction schedules bitwise-reproducible.
  ///
  /// `warm_init`, when non-empty and of entity_dim floats, seeds the mimic
  /// row from that vector instead of the architecture's random init scheme
  /// (the RNG draws the init would have consumed are still skipped — warm
  /// and cold mimics are separately, not mutually, deterministic). The
  /// Relevance Engine's warm-start mode passes the stored embedding of the
  /// entity being mimicked, giving post-training a converged starting point.
  virtual std::vector<float> PostTrainMimic(const Dataset& dataset,
                                            EntityId entity,
                                            const std::vector<Triple>& facts,
                                            Rng& rng,
                                            std::span<const float> warm_init)
      const = 0;

  /// Cold-start convenience overload (the historical 4-argument call).
  std::vector<float> PostTrainMimic(const Dataset& dataset, EntityId entity,
                                    const std::vector<Triple>& facts,
                                    Rng& rng) const {
    return PostTrainMimic(dataset, entity, facts, rng, {});
  }

  /// Closed-form sweep descriptor of ScoreAllTailsWithHeadVec (see
  /// CandidateSweep). Default: nullopt — no closed form; callers must use
  /// the exact ScoreAll* path. EmbeddingModel implements it for all five
  /// built-in models.
  virtual std::optional<CandidateSweep> TailSweepWithHeadVec(
      std::span<const float> head_vec, RelationId r) const {
    (void)head_vec;
    (void)r;
    return std::nullopt;
  }

  /// Closed-form sweep descriptor of ScoreAllHeadsWithTailVec.
  virtual std::optional<CandidateSweep> HeadSweepWithTailVec(
      RelationId r, std::span<const float> tail_vec) const {
    (void)r;
    (void)tail_vec;
    return std::nullopt;
  }

  /// The entity table the CandidateSweep kernels run against (row e =
  /// entity e's embedding), or nullptr when the model has no single such
  /// table. Only valid while the model is alive.
  virtual const Matrix* EntityTable() const { return nullptr; }

  /// Per-row int8 quantization of EntityTable(), cached per model and
  /// invalidated whenever the table mutates (post-training mimic updates,
  /// baseline perturbations, LoadParameters — anything that bumps
  /// Matrix::version()). nullptr when unavailable. Thread-safe.
  virtual std::shared_ptr<const quant::QuantizedTable> QuantizedEntityTable()
      const {
    return nullptr;
  }

  /// Stored embedding row of entity `e`.
  virtual std::span<const float> EntityEmbedding(EntityId e) const = 0;

  /// Mutable access for adversarial-perturbation baselines and tests.
  virtual std::span<float> MutableEntityEmbedding(EntityId e) = 0;

  /// Serializes every learned parameter (embeddings, shared weights) in a
  /// portable binary format. Hyperparameters are not stored; the model
  /// must be constructed with matching shapes before LoadParameters.
  virtual Status SaveParameters(std::ostream& out) const = 0;

  /// Restores parameters written by SaveParameters. Fails with
  /// InvalidArgument on any shape mismatch and IoError on truncated
  /// streams; the model state is unspecified after a failed load.
  virtual Status LoadParameters(std::istream& in) = 0;

 protected:
  explicit LinkPredictionModel(TrainConfig config)
      : config_(std::move(config)) {}

  /// GuardConfig mirror of this model's robustness fields, carrying the
  /// caller's checkpointing/cancellation control into the guard.
  GuardConfig MakeGuardConfig(const TrainControl& control = {}) const {
    GuardConfig guard;
    guard.epochs = config_.epochs;
    guard.check_finite = config_.check_finite;
    guard.recover_on_divergence = config_.recover_on_divergence;
    guard.max_recoveries = config_.max_recoveries;
    guard.lr_backoff = config_.lr_backoff;
    guard.checkpointer = control.checkpointer;
    guard.cancel = control.cancel;
    return guard;
  }

  TrainConfig config_;
  TrainReport last_train_report_;
};

}  // namespace kelpie

#endif  // KELPIE_MODELS_MODEL_H_
