#ifndef KELPIE_CORE_RELEVANCE_ENGINE_H_
#define KELPIE_CORE_RELEVANCE_ENGINE_H_

#include <atomic>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/explanation.h"
#include "core/relevance_cache.h"
#include "eval/ranking.h"
#include "kgraph/dataset.h"
#include "math/rng.h"
#include "models/model.h"

namespace kelpie {

/// Sentinel rank of a homologous baseline whose post-training diverged
/// (non-finite mimic): real ranks are always >= 1.
inline constexpr int kDivergedRank = -1;

/// Relevance reported for a candidate whose post-training diverged. A quiet
/// NaN, never a finite value: it can neither pass an acceptance threshold
/// nor displace a best-so-far candidate, and the Explanation Builder skips
/// and records it instead of aborting the extraction.
inline constexpr double kDivergedRelevance =
    std::numeric_limits<double>::quiet_NaN();

/// Options of the Relevance Engine.
struct RelevanceEngineOptions {
  /// Entities drawn per prediction for the sufficient scenario's conversion
  /// set C (paper default: 10).
  size_t conversion_set_size = 10;
  /// Ablation switch: when true, relevances are computed against the
  /// *original* entity's rank instead of a homologous mimic's rank. The
  /// paper (Section 4.2) prefers the homologous baseline because it erases
  /// post-training fluctuations; this flag reproduces that design study.
  bool use_original_rank_baseline = false;
  uint64_t seed = 1234;
  /// Worker threads for relevance evaluation (mirrors
  /// EvalOptions::num_threads). The engine parallelizes the per-entity loop
  /// of SufficientRelevance, and the Explanation Builder dispatches
  /// candidate evaluations over the same pool. Every post-training draws
  /// from an RNG stream derived solely from (seed, entity, fact set), so
  /// any thread count produces the same relevances as num_threads = 1.
  /// 1 = sequential (no pool is created).
  size_t num_threads = 1;
  /// Optional persistent cross-request post-training cache (DESIGN.md §13).
  /// When set, PostTrain answers from the cache where possible; because a
  /// mimic is a pure function of (model parameters, seed, entity, facts), a
  /// cached answer is bitwise identical to a recompute and explanations are
  /// byte-identical with the cache off, cold or warm. The cache must have
  /// been opened with ComputeModelFingerprint(model, seed) of *this* engine's
  /// model and seed; engines of a serving pool share one instance, which
  /// extends single-flight across concurrent extractions.
  std::shared_ptr<RelevanceCache> relevance_cache;
  /// Warm-start post-trainings: seed every mimic row from the stored
  /// embedding of the entity it imitates instead of the architecture's
  /// random init. The mimic then starts from a converged point, which is
  /// the post-training analogue of resuming training from a checkpointed
  /// base state. Changes mimic values (deterministically — warm runs are
  /// reproducible among themselves), so a persistent relevance cache must
  /// be opened with a warm-specific fingerprint (the CLI salts it) to keep
  /// cold and warm entries from mixing.
  bool warm_start_mimics = false;
  /// Serve the engine's mimic ranks through the certified int8 shortlist.
  /// Byte-identical to the exact sweep (RankingOptions::quantized_shortlist),
  /// so relevances and explanations are unchanged.
  bool quantized_shortlist = false;
};

/// The Relevance Engine (Section 4.2) estimates the effect that adding or
/// removing training facts would have on a prediction, without retraining
/// the whole model. Its primitive is *post-training*: a mimic entity whose
/// single embedding row is trained on a chosen fact set while all other
/// parameters stay frozen.
///
///  - A homologous mimic e' is trained on an exact replica of G^e_train and
///    approximates the behaviour of e.
///  - A non-homologous mimic is trained on a modified replica (facts
///    removed or added) and approximates the behaviour e would have shown
///    had the modification existed from the start.
///
/// Necessary relevance ξ_n (Algorithm 1) is the rank deterioration between
/// the homologous and the removal mimic; sufficient relevance ξ_s
/// (Algorithm 2) is the mean achieved fraction of the ideal rank
/// improvement over the conversion set C.
///
/// Homologous baselines belong to one extraction: the Explanation Builder
/// computes them once, before its first candidate, and passes them to every
/// relevance call. The engine keeps no state between calls besides its
/// post-training counter; cross-request reuse lives in RelevanceCache.
///
/// Thread safety: every member may be called concurrently (the Explanation
/// Builder does so when num_threads > 1).
class RelevanceEngine {
 public:
  RelevanceEngine(const LinkPredictionModel& model, const Dataset& dataset,
                  RelevanceEngineOptions options);

  /// The homologous baseline of `entity` for `prediction`: the filtered rank
  /// of the predicted entity when `entity` is represented by a mimic
  /// post-trained on its unchanged facts G^e_train (the original entity's
  /// rank, without post-training, under use_original_rank_baseline).
  /// kDivergedRank when that post-training diverged.
  int HomologousRank(EntityId entity, const Triple& prediction,
                     PredictionTarget target);

  /// HomologousRank of every entity of `conversion_set`, in set order; the
  /// post-trainings run across the pool when num_threads > 1.
  std::vector<int> HomologousRanks(const Triple& prediction,
                                   PredictionTarget target,
                                   const std::vector<EntityId>& conversion_set);

  /// Algorithm 1: expected rank deterioration when removing `candidate`
  /// from the source entity, against the source's `homologous_rank`. Range
  /// [0, |E| - 1]; larger = more relevant. Returns kDivergedRelevance (NaN)
  /// when the baseline or the removal post-training diverged — including
  /// via the `engine.post_train.diverge` failpoint.
  double NecessaryRelevance(const Triple& prediction, PredictionTarget target,
                            const std::vector<Triple>& candidate,
                            int homologous_rank);

  /// Algorithm 2: mean ratio of achieved over ideal rank improvement when
  /// adding `candidate` (transferred) to every entity of `conversion_set`,
  /// against their `homologous_ranks` (HomologousRanks of the same set).
  /// Typically in [0, 1]; can be negative when the facts hurt. The
  /// per-entity post-trainings run across the pool when num_threads > 1;
  /// contributions are accumulated in conversion-set order, so the result
  /// is bitwise identical to the sequential one. A diverged post-training
  /// anywhere in the conversion set yields kDivergedRelevance (NaN).
  double SufficientRelevance(const Triple& prediction,
                             PredictionTarget target,
                             const std::vector<Triple>& candidate,
                             const std::vector<EntityId>& conversion_set,
                             const std::vector<int>& homologous_ranks);

  /// Draws the conversion set C for a prediction from `rng`: up to
  /// conversion_set_size entities, via SampleConversionEntities. A fresh
  /// `Rng(options().seed)` draws the set Kelpie::ExplainSufficient uses.
  std::vector<EntityId> SampleConversionSet(const Triple& prediction,
                                            PredictionTarget target,
                                            Rng& rng) const;

  const RelevanceEngineOptions& options() const { return options_; }

  /// Filtered rank of the predicted entity when the source entity is
  /// represented by `mimic_vec`. Exposed for tests.
  int RankWithMimic(const Triple& prediction, PredictionTarget target,
                    EntityId source, std::span<const float> mimic_vec) const;

  /// Total post-trainings run so far (the cost unit of the paper's
  /// KernelSHAP comparison).
  size_t post_training_count() const {
    return post_training_count_.load(std::memory_order_relaxed);
  }

  /// The worker pool shared with the Explanation Builder; nullptr when
  /// num_threads <= 1 (sequential mode).
  ThreadPool* pool() { return pool_.get(); }

  size_t num_threads() const { return options_.num_threads; }

  const LinkPredictionModel& model() const { return model_; }
  const Dataset& dataset() const { return dataset_; }

 private:
  /// Post-trains a mimic of `entity` on `facts` and counts it. The RNG
  /// stream is derived from (options_.seed, entity, facts) alone, making
  /// the mimic independent of both call order and thread schedule.
  std::vector<float> PostTrain(EntityId entity,
                               const std::vector<Triple>& facts);

  /// Registry handles, resolved once at construction (cold, locked lookup)
  /// and incremented lock-free at the work sites. All engine counters are
  /// metrics::Determinism::kWallClock: under parallel extraction the
  /// builder evaluates candidates speculatively, so raw post-training
  /// totals are schedule-dependent (they are exact — and covered by
  /// exact-value tests — when num_threads is 1). The schedule-invariant
  /// work accounting lives in the Explanation Builder's counters, which are
  /// committed during its sequential replay.
  struct EngineMetrics {
    metrics::Counter& post_train_homologous;
    metrics::Counter& post_train_necessary;
    metrics::Counter& post_train_sufficient;
    metrics::Counter& diverged;

    static EngineMetrics Resolve();
  };

  const LinkPredictionModel& model_;
  const Dataset& dataset_;
  RelevanceEngineOptions options_;
  EngineMetrics metrics_;
  std::atomic<size_t> post_training_count_{0};
  std::unique_ptr<ThreadPool> pool_;
};

/// Samples up to `count` entities c (with at least one training fact) for
/// which the converted prediction <c, r, t> (tail scenario; symmetric for
/// heads) is neither a known fact nor already rank 1 — the conversion set C
/// of the sufficient scenario, shared by all frameworks in the end-to-end
/// pipeline. Gives up after 50 * count + 200 draws from `rng`.
std::vector<EntityId> SampleConversionEntities(
    const LinkPredictionModel& model, const Dataset& dataset,
    const Triple& prediction, PredictionTarget target, size_t count,
    Rng& rng);

}  // namespace kelpie

#endif  // KELPIE_CORE_RELEVANCE_ENGINE_H_
