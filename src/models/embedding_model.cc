#include "models/embedding_model.h"

#include <cmath>

#include "common/logging.h"
#include "math/simd.h"

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
                               CandidateSweep::Kernel kernel)
    : LinkPredictionModel(std::move(config)),
      entity_embeddings_(num_entities, config_.dim),
      kernel_(kernel) {}

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
