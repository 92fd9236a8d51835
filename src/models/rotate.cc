#include "models/rotate.h"

#include <cmath>

#include "common/logging.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/batcher.h"
#include "ml/negative_sampling.h"

namespace kelpie {

namespace {

constexpr float kDistanceEpsilon = 1e-9f;

}  // namespace

RotatE::RotatE(size_t num_entities, size_t num_relations, TrainConfig config)
    : EmbeddingModel(num_entities, std::move(config),
                     CandidateSweep::Kernel::kSquaredDistance,
                     InitScheme::kUniform, 0.5),
      relation_phases_(num_relations, config_.dim / 2) {
  KELPIE_CHECK(config_.dim % 2 == 0);
  AddTensor(relation_phases_);
}

void RotatE::Rotate(std::span<const float> h, RelationId r,
                    std::span<float> out) const {
  const size_t k = rank();
  std::span<const float> theta =
      relation_phases_.Row(static_cast<size_t>(r));
  for (size_t j = 0; j < k; ++j) {
    const float c = std::cos(theta[j]);
    const float s = std::sin(theta[j]);
    out[j] = h[j] * c - h[k + j] * s;
    out[k + j] = h[j] * s + h[k + j] * c;
  }
}

void RotatE::RotateInverse(std::span<const float> t, RelationId r,
                           std::span<float> out) const {
  const size_t k = rank();
  std::span<const float> theta =
      relation_phases_.Row(static_cast<size_t>(r));
  for (size_t j = 0; j < k; ++j) {
    const float c = std::cos(theta[j]);
    const float s = std::sin(theta[j]);
    out[j] = t[j] * c + t[k + j] * s;
    out[k + j] = -t[j] * s + t[k + j] * c;
  }
}

std::vector<float> RotatE::ScoreGradWrtHead(const Triple& t) const {
  // φ = -||d||, d = h∘r - t. ∂φ/∂h = -(rotate⁻¹ applied to the unit
  // residual): ∂φ/∂h_re[j] = -(d_re c + d_im s)/||d||,
  // ∂φ/∂h_im[j] = -(-d_re s + d_im c)/||d||.
  const size_t k = rank();
  std::vector<float> rotated(entity_dim());
  Rotate(entity_embeddings_.Row(static_cast<size_t>(t.head)), t.relation,
         rotated);
  std::span<const float> tail =
      entity_embeddings_.Row(static_cast<size_t>(t.tail));
  std::vector<float> d(entity_dim());
  float norm_sq = 0.0f;
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = rotated[i] - tail[i];
    norm_sq += d[i] * d[i];
  }
  const float norm = std::sqrt(norm_sq) + kDistanceEpsilon;
  std::span<const float> theta =
      relation_phases_.Row(static_cast<size_t>(t.relation));
  std::vector<float> grad(entity_dim());
  for (size_t j = 0; j < k; ++j) {
    const float c = std::cos(theta[j]);
    const float s = std::sin(theta[j]);
    grad[j] = -(d[j] * c + d[k + j] * s) / norm;
    grad[k + j] = -(-d[j] * s + d[k + j] * c) / norm;
  }
  return grad;
}

std::vector<float> RotatE::ScoreGradWrtTail(const Triple& t) const {
  // ∂φ/∂t = +d/||d||.
  std::vector<float> rotated(entity_dim());
  Rotate(entity_embeddings_.Row(static_cast<size_t>(t.head)), t.relation,
         rotated);
  std::span<const float> tail =
      entity_embeddings_.Row(static_cast<size_t>(t.tail));
  std::vector<float> d(entity_dim());
  float norm_sq = 0.0f;
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = rotated[i] - tail[i];
    norm_sq += d[i] * d[i];
  }
  const float norm = std::sqrt(norm_sq) + kDistanceEpsilon;
  for (float& v : d) {
    v /= norm;
  }
  return d;
}

namespace {

/// Fills `delta` with rotated - t and returns the distance d = ||delta||
/// (8-lane reduction, matching the scoring path bit for bit). The margin
/// test consumes the distance; NormalizeResidual() turns `delta` into the
/// residual direction u = delta/d only for triples that violate the
/// margin. Given u the distance gradients are: ∂d/∂t = -u; ∂d/∂h =
/// rotate⁻¹(u); ∂d/∂θ_j = u · ∂(h∘r)/∂θ_j.
float ResidualInto(std::span<const float> rotated, std::span<const float> t,
                   std::vector<float>& delta) {
  delta.resize(rotated.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = rotated[i] - t[i];
  }
  std::span<const float> d(delta);
  return std::sqrt(simd::Dot(d, d));
}

/// delta -> delta/norm, or zeros when the residual is degenerate (d ~ 0).
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

Status RotatE::Train(const Dataset& dataset, Rng& rng,
                     const TrainControl& control) {
  const size_t k = rank();
  InitEntityTable(rng);
  // Phases uniform over [-π, π].
  for (size_t r = 0; r < relation_phases_.rows(); ++r) {
    for (float& v : relation_phases_.Row(r)) {
      v = static_cast<float>(rng.UniformDouble(-M_PI, M_PI));
    }
  }
  last_train_report_ = TrainReport{};

  const std::vector<Triple>& train = dataset.train();
  if (train.empty()) return Status::Ok();
  NegativeSampler sampler(dataset.train_graph(), /*filtered=*/true);
  Batcher batcher(train.size(), config_.batch_size);
  float lr = config_.learning_rate;
  const float margin = config_.margin;
  std::vector<float> rotated_pos(entity_dim()), rotated_neg(entity_dim());
  std::vector<float> unit_pos, unit_neg;
  std::vector<Triple> negatives;

  // Applies one side (positive: sign=+1 pulls the distance down; negative:
  // sign=-1 pushes it up) of the margin loss. `rot` is h∘r and `unit` the
  // normalized residual of `triple`, both computed against the current
  // (pre-update) parameters.
  auto apply = [&](const Triple& triple, float sign,
                   std::span<const float> rot, std::span<const float> unit) {
    const size_t h = static_cast<size_t>(triple.head);
    const size_t r = static_cast<size_t>(triple.relation);
    const size_t t = static_cast<size_t>(triple.tail);
    std::span<float> theta = relation_phases_.Row(r);
    std::span<float> head = entity_embeddings_.Row(h);
    std::span<float> tail = entity_embeddings_.Row(t);
    for (size_t j = 0; j < k; ++j) {
      const float c = std::cos(theta[j]);
      const float s = std::sin(theta[j]);
      const float u_re = unit[j];
      const float u_im = unit[k + j];
      // ∂d/∂h (inverse rotation of u).
      const float gh_re = u_re * c + u_im * s;
      const float gh_im = -u_re * s + u_im * c;
      // ∂d/∂θ = u_re * (-(h∘r)_im) + u_im * (h∘r)_re.
      const float gtheta = -u_re * rot[k + j] + u_im * rot[j];
      head[j] -= sign * lr * gh_re;
      head[k + j] -= sign * lr * gh_im;
      tail[j] += sign * lr * u_re;
      tail[k + j] += sign * lr * u_im;
      theta[j] -= sign * lr * gtheta;
    }
  };

  // Like TransE, RotatE's margin SGD holds no optimizer state beyond the
  // rows it writes: the `apply` closure above touches exactly the head,
  // tail and phase rows of one triple, so this trainer is already sparse
  // and TrainConfig::sparse_updates changes nothing (asserted byte-for-byte
  // by the equivalence suite).
  GuardedTrainHooks hooks;
  hooks.run_epoch = [&](size_t /*epoch*/, float lr_scale) -> double {
    lr = config_.learning_rate * lr_scale;  // `apply` captures lr by reference
    double epoch_loss = 0.0;
    batcher.Reshuffle(rng);
    for (std::span<const size_t> batch = batcher.NextBatch(); !batch.empty();
         batch = batcher.NextBatch()) {
      for (size_t idx : batch) {
        const Triple& pos = train[idx];
        // The whole negatives batch is drawn up front; per-negative
        // processing consumes no RNG, so the draw order is unchanged.
        sampler.CorruptEitherSideBatch(
            pos, static_cast<size_t>(config_.negatives_per_positive), rng,
            negatives);
        for (const Triple& neg : negatives) {
          Rotate(entity_embeddings_.Row(static_cast<size_t>(pos.head)),
                 pos.relation, rotated_pos);
          float pos_dist = ResidualInto(
              rotated_pos,
              entity_embeddings_.Row(static_cast<size_t>(pos.tail)), unit_pos);
          Rotate(entity_embeddings_.Row(static_cast<size_t>(neg.head)),
                 neg.relation, rotated_neg);
          float neg_dist = ResidualInto(
              rotated_neg,
              entity_embeddings_.Row(static_cast<size_t>(neg.tail)), unit_neg);
          if (margin + pos_dist - neg_dist <= 0.0f) continue;
          epoch_loss += margin + pos_dist - neg_dist;
          // The positive's rotation and residual are valid for its update
          // (no parameters changed since they were computed)…
          NormalizeResidual(unit_pos, pos_dist);
          apply(pos, +1.0f, rotated_pos, unit_pos);
          // …but apply(pos) may have touched rows the negative reads
          // (shared head/tail/phase rows), so the negative's rotation and
          // residual are recomputed against the updated parameters.
          Rotate(entity_embeddings_.Row(static_cast<size_t>(neg.head)),
                 neg.relation, rotated_neg);
          float neg_norm = ResidualInto(
              rotated_neg,
              entity_embeddings_.Row(static_cast<size_t>(neg.tail)), unit_neg);
          NormalizeResidual(unit_neg, neg_norm);
          apply(neg, -1.0f, rotated_neg, unit_neg);
        }
      }
    }
    return epoch_loss;
  };
  return RunGuardedTraining(std::move(hooks), rng, control);
}

std::vector<float> RotatE::PostTrainMimic(const Dataset& dataset,
                                          EntityId entity,
                                          const std::vector<Triple>& facts,
                                          Rng& rng,
                                          std::span<const float> warm_init)
    const {
  const size_t k = rank();
  MimicStart start = StartMimic(warm_init, rng);
  std::vector<float> mimic = std::move(start.row);
  const float lr = start.lr;
  if (facts.empty()) return mimic;

  NegativeSampler sampler(dataset.train_graph(), /*filtered=*/false);
  const float margin = config_.margin;
  std::vector<float> rotated_pos(entity_dim()), rotated_neg(entity_dim());
  std::vector<float> unit_pos, unit_neg;
  std::vector<Triple> negatives;

  auto resolve = [&](EntityId e) -> std::span<const float> {
    return e == entity ? std::span<const float>(mimic)
                       : entity_embeddings_.Row(static_cast<size_t>(e));
  };
  // Accumulates only the mimic's gradient for one loss term. `unit` is the
  // triple's normalized residual against the current mimic value.
  auto apply_mimic = [&](const Triple& triple, float sign,
                         std::span<const float> unit) {
    std::span<const float> theta =
        relation_phases_.Row(static_cast<size_t>(triple.relation));
    for (size_t j = 0; j < k; ++j) {
      const float u_re = unit[j];
      const float u_im = unit[k + j];
      if (triple.head == entity) {
        const float c = std::cos(theta[j]);
        const float s = std::sin(theta[j]);
        mimic[j] -= sign * lr * (u_re * c + u_im * s);
        mimic[k + j] -= sign * lr * (-u_re * s + u_im * c);
      }
      if (triple.tail == entity) {
        mimic[j] += sign * lr * u_re;
        mimic[k + j] += sign * lr * u_im;
      }
    }
  };

  ForEachMimicStep(facts.size(), rng, [&](size_t idx) {
    const Triple& pos = facts[idx];
    // Batch draw; processing consumes no RNG, so order is unchanged.
    bool mimic_is_head = (pos.head == entity);
    sampler.CorruptBatch(pos, /*corrupt_tail=*/mimic_is_head,
                         static_cast<size_t>(config_.negatives_per_positive),
                         rng, negatives);
    for (const Triple& neg : negatives) {
      Rotate(resolve(pos.head), pos.relation, rotated_pos);
      float pos_dist = ResidualInto(rotated_pos, resolve(pos.tail), unit_pos);
      Rotate(resolve(neg.head), neg.relation, rotated_neg);
      float neg_dist = ResidualInto(rotated_neg, resolve(neg.tail), unit_neg);
      if (margin + pos_dist - neg_dist <= 0.0f) continue;
      // The positive's rotation/residual are still valid for its update;
      // the negative's must be recomputed because apply_mimic(pos) moves
      // the mimic row, which the negative reads on its uncorrupted side.
      NormalizeResidual(unit_pos, pos_dist);
      apply_mimic(pos, +1.0f, unit_pos);
      Rotate(resolve(neg.head), neg.relation, rotated_neg);
      float neg_norm = ResidualInto(rotated_neg, resolve(neg.tail), unit_neg);
      NormalizeResidual(unit_neg, neg_norm);
      apply_mimic(neg, -1.0f, unit_neg);
    }
  });
  return mimic;
}

}  // namespace kelpie
