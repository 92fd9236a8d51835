#include "models/embedding_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "math/simd.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

/// Per-thread scratch for the composite query, so the scoring paths do not
/// allocate per call (the relevance engine issues millions of them per
/// extraction).
std::span<float> QueryScratch(size_t dim) {
  thread_local std::vector<float> scratch;
  scratch.resize(dim);
  return scratch;
}

}  // namespace

EmbeddingModel::EmbeddingModel(size_t num_entities, TrainConfig config,
                               CandidateSweep::Kernel kernel,
                               InitScheme entity_init,
                               double entity_init_scale)
    : LinkPredictionModel(std::move(config)),
      entity_embeddings_(num_entities, config_.dim),
      kernel_(kernel),
      entity_init_(entity_init),
      entity_init_scale_(entity_init_scale) {
  AddTensor(entity_embeddings_);
}

Status EmbeddingModel::SaveParameters(std::ostream& out) const {
  for (const Tensor& t : tensors_) {
    KELPIE_RETURN_IF_ERROR(t.matrix != nullptr ? WriteMatrix(out, *t.matrix)
                                               : WriteFloats(out, *t.flat));
  }
  return Status::Ok();
}

Status EmbeddingModel::LoadParameters(std::istream& in) {
  std::vector<Matrix> matrices(tensors_.size());
  std::vector<std::vector<float>> flats(tensors_.size());
  for (size_t i = 0; i < tensors_.size(); ++i) {
    const Tensor& t = tensors_[i];
    bool shape_ok = false;
    if (t.matrix != nullptr) {
      KELPIE_RETURN_IF_ERROR(ReadMatrix(in, matrices[i]));
      shape_ok = matrices[i].rows() == t.matrix->rows() &&
                 matrices[i].cols() == t.matrix->cols();
    } else {
      KELPIE_RETURN_IF_ERROR(ReadFloats(in, flats[i]));
      shape_ok = flats[i].size() == t.flat->size();
    }
    if (!shape_ok) {
      return Status::InvalidArgument(std::string(Name()) + " tensor " +
                                     std::to_string(i) + " shape mismatch");
    }
  }
  for (size_t i = 0; i < tensors_.size(); ++i) {
    if (tensors_[i].matrix != nullptr) {
      *tensors_[i].matrix = std::move(matrices[i]);
    } else {
      *tensors_[i].flat = std::move(flats[i]);
    }
  }
  return Status::Ok();
}

Status EmbeddingModel::RunGuardedTraining(GuardedTrainHooks hooks, Rng& rng,
                                          const TrainControl& control) {
  std::vector<std::span<float>> params;
  for (const Tensor& t : tensors_) {
    params.push_back(t.matrix != nullptr ? t.matrix->Data()
                                         : std::span<float>(*t.flat));
  }
  params.insert(params.end(), hooks.params.begin(), hooks.params.end());
  hooks.params = std::move(params);
  hooks.rng = &rng;
  GuardConfig guard;
  guard.epochs = config_.epochs;
  guard.max_recoveries = config_.max_recoveries;
  guard.checkpointer = control.checkpointer;
  guard.cancel = control.cancel;
  Result<TrainReport> report = RunGuardedEpochs(guard, hooks);
  if (!report.ok()) return report.status();
  last_train_report_ = std::move(report.value());
  return Status::Ok();
}

EmbeddingModel::MimicStart EmbeddingModel::StartMimic(
    std::span<const float> warm_init, Rng& rng) const {
  MimicStart start;
  start.row.resize(entity_dim());
  if (warm_init.size() == start.row.size()) {
    std::copy(warm_init.begin(), warm_init.end(), start.row.begin());
  } else {
    InitRow(start.row, entity_init_, entity_init_scale_, rng);
  }
  start.lr = config_.post_training_lr > 0 ? config_.post_training_lr
                                          : config_.learning_rate;
  return start;
}

EmbeddingModel::GradientClip::~GradientClip() {
  metrics::Registry::Global()
      .GetCounter("kelpie_train_grad_clip_total", {},
                  metrics::Determinism::kDeterministic,
                  "Gradient clip activations (L2 projection rescales).")
      .Increment(activations_);
}

float EmbeddingModel::RowScore(std::span<const float> row,
                               std::span<const float> query) const {
  return kernel_ == CandidateSweep::Kernel::kDot
             ? simd::Dot(row, query)
             : -std::sqrt(simd::SquaredDistance(row, query));
}

void EmbeddingModel::Sweep(std::span<const float> query,
                           std::span<float> out) const {
  KELPIE_DCHECK(out.size() == num_entities());
  const float* table = entity_embeddings_.Data().data();
  if (kernel_ == CandidateSweep::Kernel::kDot) {
    simd::GemvRowMajor(table, num_entities(), entity_dim(), query.data(),
                       out.data());
    // out[e] += 1.0f * b_e adds the bias exactly as `Dot(...) + b_e` would.
    if (!entity_bias_.empty()) simd::Axpy(1.0f, entity_bias_, out);
  } else {
    simd::SquaredDistanceRows(table, num_entities(), entity_dim(),
                              query.data(), out.data());
    for (float& s : out) s = -std::sqrt(s);
  }
}

CandidateSweep EmbeddingModel::Descriptor() const {
  CandidateSweep sweep;
  sweep.kernel = kernel_;
  sweep.query.resize(entity_dim());
  sweep.bias = std::span<const float>(entity_bias_);
  return sweep;
}

float EmbeddingModel::Score(const Triple& t) const {
  return ScoreWithEntityVec(t, kNoEntity, {});
}

float EmbeddingModel::ScoreWithEntityVec(const Triple& t, EntityId which,
                                         std::span<const float> vec) const {
  std::span<const float> h = t.head == which ? vec : EntityEmbedding(t.head);
  std::span<const float> tl = t.tail == which ? vec : EntityEmbedding(t.tail);
  std::span<float> q = QueryScratch(entity_dim());
  TailComposite(h, t.relation, q);
  float score = RowScore(tl, q);
  if (!entity_bias_.empty()) {
    score += t.tail == which ? 0.0f : entity_bias_[static_cast<size_t>(t.tail)];
  }
  return score;
}

void EmbeddingModel::ScoreAllTails(EntityId h, RelationId r,
                                   std::span<float> out) const {
  ScoreAllTailsWithHeadVec(EntityEmbedding(h), r, out);
}

void EmbeddingModel::ScoreAllHeads(RelationId r, EntityId t,
                                   std::span<float> out) const {
  ScoreAllHeadsWithTailVec(r, EntityEmbedding(t), out);
}

void EmbeddingModel::ScoreAllTailsWithHeadVec(std::span<const float> head_vec,
                                              RelationId r,
                                              std::span<float> out) const {
  std::span<float> q = QueryScratch(entity_dim());
  TailComposite(head_vec, r, q);
  Sweep(q, out);
}

void EmbeddingModel::ScoreAllHeadsWithTailVec(RelationId r,
                                              std::span<const float> tail_vec,
                                              std::span<float> out) const {
  std::span<float> q = QueryScratch(entity_dim());
  HeadComposite(r, tail_vec, q);
  Sweep(q, out);
}

std::optional<CandidateSweep> EmbeddingModel::TailSweepWithHeadVec(
    std::span<const float> head_vec, RelationId r) const {
  CandidateSweep sweep = Descriptor();
  TailComposite(head_vec, r, sweep.query);
  return sweep;
}

std::optional<CandidateSweep> EmbeddingModel::HeadSweepWithTailVec(
    RelationId r, std::span<const float> tail_vec) const {
  CandidateSweep sweep = Descriptor();
  HeadComposite(r, tail_vec, sweep.query);
  return sweep;
}

}  // namespace kelpie
