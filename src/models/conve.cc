#include "models/conve.h"

#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/batcher.h"
#include "ml/optimizer.h"

namespace kelpie {

namespace {

uint64_t PairKey(int32_t a, int32_t b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

/// Draws an inverted-dropout mask (entries 0 or 1/(1-p)) and applies it to
/// `values` in place.
void ApplyDropout(std::span<float> values, float p, Rng& rng,
                  std::vector<float>& mask) {
  mask.resize(values.size());
  const float keep_scale = 1.0f / (1.0f - p);
  for (size_t i = 0; i < values.size(); ++i) {
    mask[i] = rng.Bernoulli(p) ? 0.0f : keep_scale;
    values[i] *= mask[i];
  }
}

/// Backward of dropout: multiplies the gradient by the stored mask.
void DropoutBackward(std::span<const float> mask, std::span<float> grad) {
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] *= mask[i];
  }
}

}  // namespace

ConvE::ConvE(size_t num_entities, size_t num_relations, TrainConfig config)
    : EmbeddingModel(num_entities, std::move(config),
                     CandidateSweep::Kernel::kDot, InitScheme::kNormal, 0.1),
      num_base_relations_(num_relations),
      // Reciprocal-relation augmentation (the original ConvE training
      // protocol): relation r + num_relations is r's inverse, and head
      // queries <?, r, t> are answered as tail queries <t, r_inv, ?>.
      relation_embeddings_(2 * num_relations, config_.dim) {
  entity_bias_.assign(num_entities, 0.0f);
  KELPIE_CHECK(config_.dim % config_.reshape_height == 0);
  conv_ = Conv2d(image_h(), image_w(), config_.conv_kernel,
                 config_.conv_kernel, config_.conv_channels);
  fc_ = DenseLayer(conv_.OutputSize(), config_.dim);
  AddTensor(relation_embeddings_);
  AddTensor(entity_bias_);
  AddTensor(conv_.weights());
  AddTensor(conv_.bias());
  AddTensor(fc_.weights());
  AddTensor(fc_.bias());
}

void ConvE::SharedGrads::Resize(const Conv2d& conv, const DenseLayer& fc) {
  conv_w.assign(conv.weights().size(), 0.0f);
  conv_b.assign(conv.bias().size(), 0.0f);
  fc_w.assign(fc.weights().size(), 0.0f);
  fc_b.assign(fc.bias().size(), 0.0f);
}

void ConvE::SharedGrads::Zero() {
  std::fill(conv_w.begin(), conv_w.end(), 0.0f);
  std::fill(conv_b.begin(), conv_b.end(), 0.0f);
  std::fill(fc_w.begin(), fc_w.end(), 0.0f);
  std::fill(fc_b.begin(), fc_b.end(), 0.0f);
}

void ConvE::ForwardMlp(std::span<const float> head_vec,
                       std::span<const float> rel_vec, ForwardCache& cache,
                       Rng* dropout_rng) const {
  const size_t dim = config_.dim;
  const size_t rw = image_w();
  const size_t rh = config_.reshape_height;
  cache.has_dropout = dropout_rng != nullptr;
  cache.image.resize(2 * dim);
  // Row-interleaved stacking: head row k at image row 2k, relation row k at
  // image row 2k+1, so every convolution window covers both inputs (plain
  // vertical stacking would confine head-relation interaction to the two
  // boundary rows, starving the model of multiplicative capacity at the
  // small dimensions this library uses).
  for (size_t k = 0; k < rh; ++k) {
    Copy(head_vec.subspan(k * rw, rw),
         std::span<float>(cache.image.data() + (2 * k) * rw, rw));
    Copy(rel_vec.subspan(k * rw, rw),
         std::span<float>(cache.image.data() + (2 * k + 1) * rw, rw));
  }
  if (dropout_rng != nullptr) {
    ApplyDropout(cache.image, config_.input_dropout, *dropout_rng,
                 cache.image_mask);
  }
  cache.conv_out.resize(conv_.OutputSize());
  conv_.Forward(cache.image, cache.conv_out);
  ReluInPlace(cache.conv_out);
  if (dropout_rng != nullptr) {
    ApplyDropout(cache.conv_out, config_.feature_dropout, *dropout_rng,
                 cache.conv_mask);
  }
  cache.v.resize(dim);
  fc_.Forward(cache.conv_out, cache.v);
  ReluInPlace(cache.v);
  if (dropout_rng != nullptr) {
    ApplyDropout(cache.v, config_.hidden_dropout, *dropout_rng,
                 cache.v_mask);
  }
}

void ConvE::BackwardMlp(const ForwardCache& cache, std::span<const float> dv,
                        SharedGrads* shared, std::span<float> grad_head,
                        std::span<float> grad_rel) const {
  const size_t dim = config_.dim;
  // Hidden dropout, then ReLU on v.
  std::vector<float> dv_masked(dv.begin(), dv.end());
  if (cache.has_dropout) {
    DropoutBackward(cache.v_mask, dv_masked);
  }
  ReluBackward(cache.v, dv_masked);
  // FC backward.
  std::vector<float> d_conv(conv_.OutputSize(), 0.0f);
  fc_.Backward(cache.conv_out, dv_masked,
               shared ? std::span<float>(shared->fc_w) : std::span<float>{},
               shared ? std::span<float>(shared->fc_b) : std::span<float>{},
               d_conv);
  // Feature-map dropout, then ReLU on conv activations.
  if (cache.has_dropout) {
    DropoutBackward(cache.conv_mask, d_conv);
  }
  ReluBackward(cache.conv_out, d_conv);
  // Conv backward.
  const bool need_input_grad = !grad_head.empty() || !grad_rel.empty();
  std::vector<float> d_image;
  if (need_input_grad) {
    d_image.assign(2 * dim, 0.0f);
  }
  conv_.Backward(
      cache.image, d_conv,
      shared ? std::span<float>(shared->conv_w) : std::span<float>{},
      shared ? std::span<float>(shared->conv_b) : std::span<float>{},
      need_input_grad ? std::span<float>(d_image) : std::span<float>{});
  if (cache.has_dropout && need_input_grad) {
    DropoutBackward(cache.image_mask, d_image);
  }
  const size_t rw = image_w();
  const size_t rh = config_.reshape_height;
  if (!grad_head.empty()) {
    for (size_t k = 0; k < rh; ++k) {
      for (size_t i = 0; i < rw; ++i) {
        grad_head[k * rw + i] += d_image[(2 * k) * rw + i];
      }
    }
  }
  if (!grad_rel.empty()) {
    for (size_t k = 0; k < rh; ++k) {
      for (size_t i = 0; i < rw; ++i) {
        grad_rel[k * rw + i] += d_image[(2 * k + 1) * rw + i];
      }
    }
  }
}

void ConvE::TailComposite(std::span<const float> head, RelationId r,
                          std::span<float> out) const {
  // thread_local: the const scoring paths run millions of forwards per
  // extraction; reusing the cache keeps them allocation-free. ForwardMlp
  // overwrites every field it reads, so stale contents are harmless.
  thread_local ForwardCache cache;
  ForwardMlp(head, relation_embeddings_.Row(static_cast<size_t>(r)), cache);
  Copy(cache.v, out);
}

std::vector<float> ConvE::ScoreGradWrtHead(const Triple& t) const {
  thread_local ForwardCache cache;
  ForwardMlp(entity_embeddings_.Row(static_cast<size_t>(t.head)),
             relation_embeddings_.Row(static_cast<size_t>(t.relation)),
             cache);
  // dφ/dv = t embedding; backprop to the head half of the input image.
  std::vector<float> grad_head(config_.dim, 0.0f);
  BackwardMlp(cache, entity_embeddings_.Row(static_cast<size_t>(t.tail)),
              nullptr, grad_head, {});
  return grad_head;
}

std::vector<float> ConvE::ScoreGradWrtTail(const Triple& t) const {
  thread_local ForwardCache cache;
  ForwardMlp(entity_embeddings_.Row(static_cast<size_t>(t.head)),
             relation_embeddings_.Row(static_cast<size_t>(t.relation)),
             cache);
  return cache.v;  // φ is linear in the tail embedding.
}

Status ConvE::Train(const Dataset& dataset, Rng& rng,
                    const TrainControl& control) {
  InitEntityTable(rng);
  InitMatrix(relation_embeddings_, InitScheme::kNormal, 0.1, rng);
  std::fill(entity_bias_.begin(), entity_bias_.end(), 0.0f);
  conv_.Init(rng);
  fc_.Init(rng);
  last_train_report_ = TrainReport{};

  if (dataset.train().empty()) return Status::Ok();
  const size_t n_ent = num_entities();
  const size_t dim = config_.dim;

  // Reciprocal augmentation: every fact <h, r, t> also trains the inverse
  // sample <t, r_inv, h>.
  std::vector<Triple> train;
  train.reserve(2 * dataset.train().size());
  for (const Triple& t : dataset.train()) {
    train.push_back(t);
    train.emplace_back(t.tail, ReciprocalOf(t.relation), t.head);
  }

  // Train-only label sets for 1-N scoring (the all-splits filter map of the
  // Dataset would leak validation/test answers into training).
  std::unordered_map<uint64_t, std::vector<EntityId>> train_tails;
  for (const Triple& t : train) {
    train_tails[PairKey(t.head, t.relation)].push_back(t.tail);
  }

  DenseAdam conv_w_opt(conv_.weights().rows(), conv_.weights().cols(),
                       config_.conv_lr);
  DenseAdam conv_b_opt(1, conv_.bias().size(), config_.conv_lr);
  DenseAdam fc_w_opt(fc_.weights().rows(), fc_.weights().cols(),
                     config_.conv_lr);
  DenseAdam fc_b_opt(1, fc_.bias().size(), config_.conv_lr);
  // Embedding tables and the entity bias route through the sparse-capable
  // row optimizer; the shared conv/FC layers are genuinely dense and keep
  // DenseAdam regardless of TrainConfig::sparse_updates.
  EmbeddingAdagrad entity_opt(config_.sparse_updates, n_ent, dim,
                              config_.learning_rate);
  EmbeddingAdagrad relation_opt(config_.sparse_updates,
                                relation_embeddings_.rows(), dim,
                                config_.learning_rate);
  EmbeddingAdagrad bias_opt(config_.sparse_updates, 1, n_ent,
                            config_.learning_rate);

  SharedGrads shared;
  shared.Resize(conv_, fc_);
  Batcher batcher(train.size(), config_.batch_size);

  ForwardCache cache;
  std::vector<float> scores(n_ent);
  std::vector<float> dv(dim), gh(dim), gr(dim), ge(dim);
  std::vector<float> bias_grad(n_ent, 0.0f);
  const float smooth_pos =
      1.0f - config_.label_smoothing +
      config_.label_smoothing / static_cast<float>(n_ent);
  const float smooth_neg = config_.label_smoothing / static_cast<float>(n_ent);

  GradientClip maybe_clip(config_.grad_clip_norm);

  GuardedTrainHooks hooks;
  // Dense mode keeps the historical 18-span layout (7 tensors, then these)
  // so pre-sparse checkpoints stay resumable; in sparse mode the three
  // Adagrad accumulators move into the save_sparse/restore_sparse blob and
  // the Adam moments (dense by nature) stay here.
  if (!config_.sparse_updates) {
    hooks.params = {entity_opt.DenseAccumData(), relation_opt.DenseAccumData(),
                    bias_opt.DenseAccumData()};
  }
  hooks.params.insert(hooks.params.end(),
                      {conv_w_opt.MomentMData(), conv_w_opt.MomentVData(),
                       conv_b_opt.MomentMData(), conv_b_opt.MomentVData(),
                       fc_w_opt.MomentMData(), fc_w_opt.MomentVData(),
                       fc_b_opt.MomentMData(), fc_b_opt.MomentVData()});
  if (config_.sparse_updates) {
    hooks.save_sparse = [&] {
      return ComposeSparseBlobs({entity_opt.SaveSparseState(),
                                 relation_opt.SaveSparseState(),
                                 bias_opt.SaveSparseState()});
    };
    hooks.restore_sparse = [&](const std::string& blob) {
      std::vector<std::string> parts;
      if (!SplitSparseBlobs(blob, 3, parts)) return false;
      EmbeddingAdagrad probe_e = entity_opt;
      EmbeddingAdagrad probe_r = relation_opt;
      EmbeddingAdagrad probe_b = bias_opt;
      if (!probe_e.RestoreSparseState(parts[0]) ||
          !probe_r.RestoreSparseState(parts[1]) ||
          !probe_b.RestoreSparseState(parts[2])) {
        return false;
      }
      entity_opt = std::move(probe_e);
      relation_opt = std::move(probe_r);
      bias_opt = std::move(probe_b);
      return true;
    };
    hooks.sparse_finite = [&] {
      return entity_opt.SparseFinite() && relation_opt.SparseFinite() &&
             bias_opt.SparseFinite();
    };
  }
  hooks.save_counters = [&] {
    return std::vector<uint64_t>{
        static_cast<uint64_t>(conv_w_opt.step_count()),
        static_cast<uint64_t>(conv_b_opt.step_count()),
        static_cast<uint64_t>(fc_w_opt.step_count()),
        static_cast<uint64_t>(fc_b_opt.step_count())};
  };
  hooks.restore_counters = [&](const std::vector<uint64_t>& counters) {
    conv_w_opt.set_step_count(static_cast<int64_t>(counters[0]));
    conv_b_opt.set_step_count(static_cast<int64_t>(counters[1]));
    fc_w_opt.set_step_count(static_cast<int64_t>(counters[2]));
    fc_b_opt.set_step_count(static_cast<int64_t>(counters[3]));
  };
  hooks.run_epoch = [&](size_t /*epoch*/, float lr_scale) -> double {
    entity_opt.set_lr_scale(lr_scale);
    relation_opt.set_lr_scale(lr_scale);
    bias_opt.set_lr_scale(lr_scale);
    conv_w_opt.set_lr_scale(lr_scale);
    conv_b_opt.set_lr_scale(lr_scale);
    fc_w_opt.set_lr_scale(lr_scale);
    fc_b_opt.set_lr_scale(lr_scale);
    double epoch_loss = 0.0;
    batcher.Reshuffle(rng);
    for (std::span<const size_t> batch = batcher.NextBatch(); !batch.empty();
         batch = batcher.NextBatch()) {
      shared.Zero();
      for (size_t idx : batch) {
        const Triple& triple = train[idx];
        const size_t h = static_cast<size_t>(triple.head);
        const size_t r = static_cast<size_t>(triple.relation);

        ForwardMlp(entity_embeddings_.Row(h), relation_embeddings_.Row(r),
                   cache, &rng);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           cache.v.data(), scores.data());
        simd::Axpy(1.0f, entity_bias_, scores);
        // 1-N BCE with label smoothing; labels from train-only tails.
        std::vector<char> is_positive(n_ent, 0);
        auto it = train_tails.find(PairKey(triple.head, triple.relation));
        KELPIE_DCHECK(it != train_tails.end());
        for (EntityId t : it->second) {
          is_positive[static_cast<size_t>(t)] = 1;
        }
        Fill(std::span<float>(dv), 0.0f);
        std::fill(bias_grad.begin(), bias_grad.end(), 0.0f);
        const float inv_n = 1.0f / static_cast<float>(n_ent);
        epoch_loss += -std::log(std::max<double>(
            Sigmoid(scores[static_cast<size_t>(triple.tail)]), 1e-30));
        for (size_t e = 0; e < n_ent; ++e) {
          float label = is_positive[e] ? smooth_pos : smooth_neg;
          float dphi = (Sigmoid(scores[e]) - label) * inv_n;
          if (std::fabs(dphi) < 1e-9f) continue;
          // dL/dt_e = dphi * v, applied immediately.
          for (size_t i = 0; i < dim; ++i) {
            ge[i] = dphi * cache.v[i];
          }
          maybe_clip(ge);
          entity_opt.Step(entity_embeddings_, e, ge);
          bias_grad[e] = dphi;
          Axpy(dphi, entity_embeddings_.Row(e), std::span<float>(dv));
        }
        bias_opt.StepSpan(entity_bias_, 0, bias_grad);

        Fill(std::span<float>(gh), 0.0f);
        Fill(std::span<float>(gr), 0.0f);
        BackwardMlp(cache, dv, &shared, gh, gr);
        maybe_clip(gh);
        maybe_clip(gr);
        entity_opt.Step(entity_embeddings_, h, gh);
        relation_opt.Step(relation_embeddings_, r, gr);
      }
      // Shared weights step once per batch.
      conv_w_opt.Step(conv_.weights(), shared.conv_w);
      conv_b_opt.StepSpan(conv_.bias(), shared.conv_b);
      fc_w_opt.Step(fc_.weights(), shared.fc_w);
      fc_b_opt.StepSpan(fc_.bias(), shared.fc_b);
    }
    return epoch_loss;
  };
  return RunGuardedTraining(std::move(hooks), rng, control);
}

std::vector<float> ConvE::PostTrainMimic(const Dataset& dataset,
                                         EntityId entity,
                                         const std::vector<Triple>& facts,
                                         Rng& rng,
                                         std::span<const float> warm_init)
    const {
  (void)dataset;
  const size_t n_ent = num_entities();
  const size_t dim = config_.dim;
  MimicStart start = StartMimic(warm_init, rng);
  std::vector<float> mimic = std::move(start.row);
  if (facts.empty()) return mimic;

  // One-row optimizer for the mimic; under sparse_updates its accumulator
  // materializes on the first gradient (same bytes either way).
  EmbeddingAdagrad mimic_opt(config_.sparse_updates, 1, dim, start.lr);

  // Every fact becomes a mimic-as-head sample, using the reciprocal
  // relation when the mimic is the fact's tail — mirroring training.
  std::vector<Triple> samples;
  samples.reserve(facts.size());
  for (const Triple& f : facts) {
    if (f.head == entity) {
      samples.push_back(f);
    } else {
      samples.emplace_back(entity, ReciprocalOf(f.relation), f.head);
    }
  }
  std::unordered_map<uint64_t, std::vector<EntityId>> mimic_tails;
  for (const Triple& s : samples) {
    mimic_tails[PairKey(entity, s.relation)].push_back(s.tail);
  }

  ForwardCache cache;
  std::vector<float> scores(n_ent);
  std::vector<float> dv(dim), gm(dim);
  const float smooth_pos =
      1.0f - config_.label_smoothing +
      config_.label_smoothing / static_cast<float>(n_ent);
  const float smooth_neg = config_.label_smoothing / static_cast<float>(n_ent);

  ForEachMimicStep(samples.size(), rng, [&](size_t idx) {
    const Triple& sample = samples[idx];
    Fill(std::span<float>(gm), 0.0f);
    // Mimic as head of the (possibly reciprocal) query: full 1-N BCE;
    // the gradient reaches the mimic through the convolution input while
    // every other parameter stays frozen.
    ForwardMlp(mimic,
               relation_embeddings_.Row(static_cast<size_t>(sample.relation)),
               cache, &rng);
    simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                       cache.v.data(), scores.data());
    simd::Axpy(1.0f, entity_bias_, scores);
    std::vector<char> is_positive(n_ent, 0);
    auto it = mimic_tails.find(PairKey(entity, sample.relation));
    if (it != mimic_tails.end()) {
      for (EntityId t : it->second) {
        is_positive[static_cast<size_t>(t)] = 1;
      }
    }
    Fill(std::span<float>(dv), 0.0f);
    const float inv_n = 1.0f / static_cast<float>(n_ent);
    for (size_t e = 0; e < n_ent; ++e) {
      float label = is_positive[e] ? smooth_pos : smooth_neg;
      float dphi = (Sigmoid(scores[e]) - label) * inv_n;
      Axpy(dphi, entity_embeddings_.Row(e), std::span<float>(dv));
    }
    BackwardMlp(cache, dv, nullptr, gm, {});
    mimic_opt.StepSpan(mimic, 0, gm);
  });
  return mimic;
}

}  // namespace kelpie
