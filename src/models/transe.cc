#include "models/transe.h"

#include <cmath>

#include "common/logging.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/batcher.h"
#include "ml/embedding_table.h"
#include "ml/negative_sampling.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

constexpr float kDistanceEpsilon = 1e-9f;

}  // namespace

TransE::TransE(size_t num_entities, size_t num_relations, TrainConfig config)
    : EmbeddingModel(num_entities, std::move(config),
                     CandidateSweep::Kernel::kSquaredDistance),
      relation_embeddings_(num_relations, config_.dim) {}

void TransE::TailComposite(std::span<const float> head, RelationId r,
                           std::span<float> out) const {
  std::span<const float> rel =
      relation_embeddings_.Row(static_cast<size_t>(r));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = head[i] + rel[i];
  }
}

void TransE::HeadComposite(RelationId r, std::span<const float> tail,
                           std::span<float> out) const {
  std::span<const float> rel =
      relation_embeddings_.Row(static_cast<size_t>(r));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = tail[i] - rel[i];
  }
}

std::vector<float> TransE::ScoreGradWrtHead(const Triple& t) const {
  // φ = -||h + r - t||; ∂φ/∂h = -(h + r - t)/||h + r - t||.
  std::span<const float> h =
      entity_embeddings_.Row(static_cast<size_t>(t.head));
  std::span<const float> r =
      relation_embeddings_.Row(static_cast<size_t>(t.relation));
  std::span<const float> tl =
      entity_embeddings_.Row(static_cast<size_t>(t.tail));
  std::vector<float> delta(entity_dim());
  float norm_sq = 0.0f;
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = h[i] + r[i] - tl[i];
    norm_sq += delta[i] * delta[i];
  }
  float norm = std::sqrt(norm_sq) + kDistanceEpsilon;
  for (float& v : delta) {
    v = -v / norm;
  }
  return delta;
}

std::vector<float> TransE::ScoreGradWrtTail(const Triple& t) const {
  // ∂φ/∂t = +(h + r - t)/||h + r - t|| = -∂φ/∂h.
  std::vector<float> grad = ScoreGradWrtHead(t);
  for (float& v : grad) {
    v = -v;
  }
  return grad;
}

namespace {

/// Fills `delta` with h + r - t and returns the distance d = ||delta||.
/// One fused pass replaces the Score + UnitResidual pair the training
/// loops used to run: the margin test consumes the returned distance, and
/// the same residual (normalized via NormalizeResidual only for triples
/// that violate the margin) drives the SGD update.
float ResidualInto(std::span<const float> h, std::span<const float> r,
                   std::span<const float> t, std::vector<float>& delta) {
  delta.resize(h.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = h[i] + r[i] - t[i];
  }
  std::span<const float> d(delta);
  return std::sqrt(simd::Dot(d, d));
}

/// Turns a ResidualInto() delta into the gradient direction of the
/// distance w.r.t. its arguments: ∂d/∂h = ∂d/∂r = delta/d, ∂d/∂t =
/// -delta/d. Zeros the vector when d ~ 0 (degenerate residual).
void NormalizeResidual(std::vector<float>& delta, float norm) {
  if (norm < kDistanceEpsilon) {
    std::fill(delta.begin(), delta.end(), 0.0f);
    return;
  }
  for (float& v : delta) {
    v /= norm;
  }
}

}  // namespace

Status TransE::Train(const Dataset& dataset, Rng& rng,
                     const TrainControl& control) {
  const double init_bound = 6.0 / std::sqrt(static_cast<double>(config_.dim));
  InitMatrix(entity_embeddings_, InitScheme::kUniform, init_bound, rng);
  InitMatrix(relation_embeddings_, InitScheme::kUniform, init_bound, rng);
  for (size_t r = 0; r < relation_embeddings_.rows(); ++r) {
    ProjectToL2Ball(relation_embeddings_.Row(r), 1.0f);
  }
  last_train_report_ = TrainReport{};

  const std::vector<Triple>& train = dataset.train();
  if (train.empty()) return Status::Ok();
  NegativeSampler sampler(dataset.train_graph(), /*filtered=*/true);
  Batcher batcher(train.size(), config_.batch_size);
  const float margin = config_.margin;

  // TransE's SGD carries no per-row optimizer state: each step writes only
  // the embedding rows of the triple in hand, so the trainer is already the
  // sparse path and TrainConfig::sparse_updates is a (documented) no-op —
  // the byte-identity suite still covers it alongside the stateful models.
  GuardedTrainHooks hooks;
  hooks.params = [&] {
    return std::vector<std::span<float>>{entity_embeddings_.Data(),
                                         relation_embeddings_.Data()};
  };
  hooks.run_epoch = [&](size_t /*epoch*/, float lr_scale) -> double {
    const float lr = config_.learning_rate * lr_scale;
    double epoch_loss = 0.0;
    batcher.Reshuffle(rng);
    // Hoisted out of the loops: the negatives batch and both residuals
    // reuse their capacity across all steps of the epoch.
    std::vector<Triple> negatives;
    std::vector<float> pos_dir, neg_dir;
    for (std::span<const size_t> batch = batcher.NextBatch(); !batch.empty();
         batch = batcher.NextBatch()) {
      for (size_t idx : batch) {
        const Triple& pos = train[idx];
        // Original TransE renormalizes entity embeddings before each step.
        ProjectToL2Ball(
            entity_embeddings_.Row(static_cast<size_t>(pos.head)), 1.0f);
        ProjectToL2Ball(
            entity_embeddings_.Row(static_cast<size_t>(pos.tail)), 1.0f);
        // Drawing the whole negatives batch up front consumes the RNG in
        // exactly the per-negative order (the update below draws nothing),
        // so results are unchanged.
        sampler.CorruptEitherSideBatch(
            pos, static_cast<size_t>(config_.negatives_per_positive), rng,
            negatives);
        for (const Triple& neg : negatives) {
          float pos_dist = ResidualInto(
              entity_embeddings_.Row(static_cast<size_t>(pos.head)),
              relation_embeddings_.Row(static_cast<size_t>(pos.relation)),
              entity_embeddings_.Row(static_cast<size_t>(pos.tail)), pos_dir);
          float neg_dist = ResidualInto(
              entity_embeddings_.Row(static_cast<size_t>(neg.head)),
              relation_embeddings_.Row(static_cast<size_t>(neg.relation)),
              entity_embeddings_.Row(static_cast<size_t>(neg.tail)), neg_dir);
          if (margin + pos_dist - neg_dist <= 0.0f) continue;
          epoch_loss += margin + pos_dist - neg_dist;
          // Loss = margin + d(pos) - d(neg); descend.
          NormalizeResidual(pos_dir, pos_dist);
          NormalizeResidual(neg_dir, neg_dist);
          // Positive triple: pull d(pos) down.
          Axpy(-lr, pos_dir,
               entity_embeddings_.Row(static_cast<size_t>(pos.head)));
          Axpy(-lr, pos_dir,
               relation_embeddings_.Row(static_cast<size_t>(pos.relation)));
          Axpy(+lr, pos_dir,
               entity_embeddings_.Row(static_cast<size_t>(pos.tail)));
          // Negative triple: push d(neg) up.
          Axpy(+lr, neg_dir,
               entity_embeddings_.Row(static_cast<size_t>(neg.head)));
          Axpy(+lr, neg_dir,
               relation_embeddings_.Row(static_cast<size_t>(neg.relation)));
          Axpy(-lr, neg_dir,
               entity_embeddings_.Row(static_cast<size_t>(neg.tail)));
        }
      }
    }
    return epoch_loss;
  };

  hooks.save_rng = [&] { return rng.SaveState(); };
  hooks.restore_rng = [&](const RngState& state) { rng.LoadState(state); };

  Result<TrainReport> report =
      RunGuardedEpochs(MakeGuardConfig(control), hooks);
  if (!report.ok()) return report.status();
  last_train_report_ = std::move(report.value());
  return Status::Ok();
}

std::vector<float> TransE::PostTrainMimic(const Dataset& dataset,
                                          EntityId entity,
                                          const std::vector<Triple>& facts,
                                          Rng& rng,
                                          std::span<const float> warm_init)
    const {
  std::vector<float> mimic(entity_dim());
  if (warm_init.size() == mimic.size()) {
    std::copy(warm_init.begin(), warm_init.end(), mimic.begin());
  } else {
    const double init_bound =
        6.0 / std::sqrt(static_cast<double>(config_.dim));
    InitRow(mimic, InitScheme::kUniform, init_bound, rng);
  }
  ProjectToL2Ball(mimic, 1.0f);
  if (facts.empty()) return mimic;

  NegativeSampler sampler(dataset.train_graph(), /*filtered=*/false);
  const float lr =
      config_.post_training_lr > 0 ? config_.post_training_lr
                                   : config_.learning_rate;
  const float margin = config_.margin;
  std::vector<size_t> order(facts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<Triple> negatives;
  std::vector<float> pos_dir, neg_dir;
  for (size_t epoch = 0; epoch < config_.post_training_epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const Triple& pos = facts[idx];
      // Corrupt the side NOT held by the mimic so the mimic embedding
      // receives gradient from both the positive and the negative term.
      // The whole batch is drawn up front; the updates below consume no
      // RNG, so the draw order (and hence the result) is unchanged.
      bool mimic_is_head = (pos.head == entity);
      sampler.CorruptBatch(pos, /*corrupt_tail=*/mimic_is_head,
                           static_cast<size_t>(config_.negatives_per_positive),
                           rng, negatives);
      for (const Triple& neg : negatives) {
        auto resolve = [&](EntityId e) -> std::span<const float> {
          return e == entity
                     ? std::span<const float>(mimic)
                     : entity_embeddings_.Row(static_cast<size_t>(e));
        };
        std::span<const float> rel =
            relation_embeddings_.Row(static_cast<size_t>(pos.relation));
        float pos_dist =
            ResidualInto(resolve(pos.head), rel, resolve(pos.tail), pos_dir);
        float neg_dist =
            ResidualInto(resolve(neg.head), rel, resolve(neg.tail), neg_dir);
        if (margin + pos_dist - neg_dist <= 0.0f) continue;
        NormalizeResidual(pos_dir, pos_dist);
        NormalizeResidual(neg_dir, neg_dist);
        // Only the mimic row moves; frozen parameters get no updates.
        if (pos.head == entity) Axpy(-lr, pos_dir, std::span<float>(mimic));
        if (pos.tail == entity) Axpy(+lr, pos_dir, std::span<float>(mimic));
        if (neg.head == entity) Axpy(+lr, neg_dir, std::span<float>(mimic));
        if (neg.tail == entity) Axpy(-lr, neg_dir, std::span<float>(mimic));
      }
      ProjectToL2Ball(mimic, 1.0f);
    }
  }
  return mimic;
}

Status TransE::SaveParameters(std::ostream& out) const {
  KELPIE_RETURN_IF_ERROR(WriteMatrix(out, entity_embeddings_));
  return WriteMatrix(out, relation_embeddings_);
}

Status TransE::LoadParameters(std::istream& in) {
  Matrix entities, relations;
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, entities));
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, relations));
  if (entities.rows() != entity_embeddings_.rows() ||
      entities.cols() != entity_embeddings_.cols() ||
      relations.rows() != relation_embeddings_.rows() ||
      relations.cols() != relation_embeddings_.cols()) {
    return Status::InvalidArgument("TransE parameter shape mismatch");
  }
  entity_embeddings_ = std::move(entities);
  relation_embeddings_ = std::move(relations);
  return Status::Ok();
}

}  // namespace kelpie
