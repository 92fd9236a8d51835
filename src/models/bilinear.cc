#include "models/bilinear.h"

#include <cmath>

#include "common/logging.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/batcher.h"

namespace kelpie {

BilinearModel::BilinearModel(size_t num_entities, size_t num_relations,
                             TrainConfig config)
    : EmbeddingModel(num_entities, std::move(config),
                     CandidateSweep::Kernel::kDot, InitScheme::kNormal, 0.1),
      relation_embeddings_(num_relations, config_.dim) {
  AddTensor(relation_embeddings_);
}

std::vector<float> BilinearModel::ScoreGradWrtHead(const Triple& t) const {
  // φ = <h, HeadQuery(r, t)> so ∂φ/∂h = HeadQuery(r, t).
  std::vector<float> w(entity_dim());
  HeadQuery(relation_embeddings_.Row(static_cast<size_t>(t.relation)),
            entity_embeddings_.Row(static_cast<size_t>(t.tail)), w);
  return w;
}

std::vector<float> BilinearModel::ScoreGradWrtTail(const Triple& t) const {
  // φ = <TailQuery(h, r), t> so ∂φ/∂t = TailQuery(h, r).
  std::vector<float> q(entity_dim());
  TailQuery(entity_embeddings_.Row(static_cast<size_t>(t.head)),
            relation_embeddings_.Row(static_cast<size_t>(t.relation)), q);
  return q;
}

void BilinearModel::AddN3Gradient(std::span<const float> row,
                                  std::span<float> grad) const {
  const float lambda = config_.regularization;
  if (lambda <= 0.0f) return;
  for (size_t i = 0; i < row.size(); ++i) {
    grad[i] += lambda * 3.0f * std::fabs(row[i]) * row[i];
  }
}

Status BilinearModel::Train(const Dataset& dataset, Rng& rng,
                            const TrainControl& control) {
  InitEntityTable(rng);
  InitMatrix(relation_embeddings_, InitScheme::kNormal, 0.1, rng);
  last_train_report_ = TrainReport{};

  const std::vector<Triple>& train = dataset.train();
  if (train.empty()) return Status::Ok();
  const size_t n_ent = num_entities();
  const size_t dim = entity_dim();

  EmbeddingAdagrad entity_opt(config_.sparse_updates, n_ent, dim,
                              config_.learning_rate);
  EmbeddingAdagrad relation_opt(config_.sparse_updates, num_relations(), dim,
                                config_.learning_rate);
  Batcher batcher(train.size(), config_.batch_size);

  std::vector<float> scores(n_ent);
  std::vector<float> q(dim), w(dim);
  std::vector<float> dq(dim), dw(dim);
  std::vector<float> gh(dim), gr(dim), gt(dim), ge(dim);

  // Full-softmax gradients scale with the score spread, so this trainer can
  // genuinely blow up; optionally clip each per-row gradient to an L2 ball.
  GradientClip maybe_clip(config_.grad_clip_norm);

  GuardedTrainHooks hooks;
  if (!config_.sparse_updates) {
    // Dense mode keeps the historical span layout (embeddings + both
    // accumulator tables), so pre-sparse checkpoints stay resumable. In
    // sparse mode the accumulators live in touched-row maps and travel
    // through the save_sparse/restore_sparse blob hooks instead.
    hooks.params = {entity_opt.DenseAccumData(),
                    relation_opt.DenseAccumData()};
  }
  if (config_.sparse_updates) {
    hooks.save_sparse = [&] {
      return ComposeSparseBlobs(
          {entity_opt.SaveSparseState(), relation_opt.SaveSparseState()});
    };
    hooks.restore_sparse = [&](const std::string& blob) {
      std::vector<std::string> parts;
      if (!SplitSparseBlobs(blob, 2, parts)) return false;
      // Validate both halves before mutating either, so a failed restore
      // leaves the optimizers untouched.
      EmbeddingAdagrad probe_e = entity_opt;
      EmbeddingAdagrad probe_r = relation_opt;
      if (!probe_e.RestoreSparseState(parts[0]) ||
          !probe_r.RestoreSparseState(parts[1])) {
        return false;
      }
      entity_opt = std::move(probe_e);
      relation_opt = std::move(probe_r);
      return true;
    };
    hooks.sparse_finite = [&] {
      return entity_opt.SparseFinite() && relation_opt.SparseFinite();
    };
  }
  hooks.run_epoch = [&](size_t /*epoch*/, float lr_scale) -> double {
    entity_opt.set_lr_scale(lr_scale);
    relation_opt.set_lr_scale(lr_scale);
    double epoch_loss = 0.0;
    batcher.Reshuffle(rng);
    for (std::span<const size_t> batch = batcher.NextBatch(); !batch.empty();
         batch = batcher.NextBatch()) {
      for (size_t idx : batch) {
        const Triple& triple = train[idx];
        const size_t h = static_cast<size_t>(triple.head);
        const size_t r = static_cast<size_t>(triple.relation);
        const size_t t = static_cast<size_t>(triple.tail);

        // ---- Tail direction: -log p(t | h, r). ----
        TailQuery(entity_embeddings_.Row(h), relation_embeddings_.Row(r), q);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           q.data(), scores.data());
        SoftmaxInPlace(scores);
        epoch_loss += -std::log(std::max<double>(scores[t], 1e-30));
        Fill(std::span<float>(dq), 0.0f);
        for (size_t e = 0; e < n_ent; ++e) {
          float coeff = scores[e] - (e == t ? 1.0f : 0.0f);
          if (std::fabs(coeff) < 1e-7f) continue;
          // dL/dt_e = coeff * q  — applied immediately per candidate row.
          std::span<const float> qv = q;
          for (size_t i = 0; i < dim; ++i) {
            ge[i] = coeff * qv[i];
          }
          if (e == t) {
            AddN3Gradient(entity_embeddings_.Row(e), ge);
          }
          maybe_clip(ge);
          entity_opt.Step(entity_embeddings_, e, ge);
          Axpy(coeff, entity_embeddings_.Row(e), std::span<float>(dq));
        }
        Fill(std::span<float>(gh), 0.0f);
        Fill(std::span<float>(gr), 0.0f);
        BackpropTailQuery(entity_embeddings_.Row(h),
                          relation_embeddings_.Row(r), dq, gh, gr);
        AddN3Gradient(entity_embeddings_.Row(h), gh);
        AddN3Gradient(relation_embeddings_.Row(r), gr);
        maybe_clip(gh);
        maybe_clip(gr);
        entity_opt.Step(entity_embeddings_, h, gh);
        relation_opt.Step(relation_embeddings_, r, gr);

        // ---- Head direction: -log p(h | r, t). ----
        HeadQuery(relation_embeddings_.Row(r), entity_embeddings_.Row(t), w);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           w.data(), scores.data());
        SoftmaxInPlace(scores);
        epoch_loss += -std::log(std::max<double>(scores[h], 1e-30));
        Fill(std::span<float>(dw), 0.0f);
        for (size_t e = 0; e < n_ent; ++e) {
          float coeff = scores[e] - (e == h ? 1.0f : 0.0f);
          if (std::fabs(coeff) < 1e-7f) continue;
          for (size_t i = 0; i < dim; ++i) {
            ge[i] = coeff * w[i];
          }
          maybe_clip(ge);
          entity_opt.Step(entity_embeddings_, e, ge);
          Axpy(coeff, entity_embeddings_.Row(e), std::span<float>(dw));
        }
        Fill(std::span<float>(gr), 0.0f);
        Fill(std::span<float>(gt), 0.0f);
        BackpropHeadQuery(relation_embeddings_.Row(r),
                          entity_embeddings_.Row(t), dw, gr, gt);
        AddN3Gradient(relation_embeddings_.Row(r), gr);
        AddN3Gradient(entity_embeddings_.Row(t), gt);
        maybe_clip(gr);
        maybe_clip(gt);
        relation_opt.Step(relation_embeddings_, r, gr);
        entity_opt.Step(entity_embeddings_, t, gt);
      }
    }
    return epoch_loss;
  };
  return RunGuardedTraining(std::move(hooks), rng, control);
}

std::vector<float> BilinearModel::PostTrainMimic(
    const Dataset& dataset, EntityId entity,
    const std::vector<Triple>& facts, Rng& rng,
    std::span<const float> warm_init) const {
  (void)dataset;
  const size_t n_ent = num_entities();
  const size_t dim = entity_dim();
  MimicStart start = StartMimic(warm_init, rng);
  std::vector<float> mimic = std::move(start.row);
  if (facts.empty()) return mimic;

  // One-row optimizer for the mimic; under sparse_updates its accumulator
  // materializes on the first gradient (same bytes either way).
  EmbeddingAdagrad mimic_opt(config_.sparse_updates, 1, dim, start.lr);

  std::vector<float> scores(n_ent);
  std::vector<float> q(dim), dq(dim), gm(dim);

  ForEachMimicStep(facts.size(), rng, [&](size_t idx) {
    const Triple& fact = facts[idx];
    Fill(std::span<float>(gm), 0.0f);

    if (fact.head == entity) {
      // Mimic as head; tail direction trains the mimic through the query,
      // -log p(tail | mimic, r) over all real entities.
      const size_t r = static_cast<size_t>(fact.relation);
      const size_t t = static_cast<size_t>(fact.tail);
      TailQuery(mimic, relation_embeddings_.Row(r), q);
      simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                         q.data(), scores.data());
      SoftmaxInPlace(scores);
      Fill(std::span<float>(dq), 0.0f);
      for (size_t e = 0; e < n_ent; ++e) {
        float coeff = scores[e] - (e == t ? 1.0f : 0.0f);
        if (std::fabs(coeff) < 1e-7f) continue;
        Axpy(coeff, entity_embeddings_.Row(e), std::span<float>(dq));
      }
      BackpropTailQuery(mimic, relation_embeddings_.Row(r), dq, gm, {});
    } else {
      // Mimic as tail: the mimic is the true answer of the tail-direction
      // softmax; candidates are the real entities plus the mimic itself.
      const size_t h = static_cast<size_t>(fact.head);
      const size_t r = static_cast<size_t>(fact.relation);
      TailQuery(entity_embeddings_.Row(h), relation_embeddings_.Row(r), q);
      simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                         q.data(), scores.data());
      double max_s = -1e30;
      for (size_t e = 0; e < n_ent; ++e) {
        max_s = std::max<double>(max_s, scores[e]);
      }
      float mimic_score = Dot(q, mimic);
      max_s = std::max<double>(max_s, mimic_score);
      double denom = std::exp(static_cast<double>(mimic_score) - max_s);
      for (size_t e = 0; e < n_ent; ++e) {
        denom += std::exp(static_cast<double>(scores[e]) - max_s);
      }
      double p_mimic =
          std::exp(static_cast<double>(mimic_score) - max_s) / denom;
      // dL/dmimic = (p_mimic - 1) * q.
      Axpy(static_cast<float>(p_mimic - 1.0), q, std::span<float>(gm));
    }
    AddN3Gradient(mimic, gm);
    mimic_opt.StepSpan(mimic, 0, gm);
  });
  return mimic;
}

}  // namespace kelpie
