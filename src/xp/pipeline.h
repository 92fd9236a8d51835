#ifndef KELPIE_XP_PIPELINE_H_
#define KELPIE_XP_PIPELINE_H_

#include <string>
#include <vector>

#include "baselines/explainer.h"
#include "common/budget.h"
#include "common/result.h"
#include "core/relevance_engine.h"  // SampleConversionEntities
#include "eval/evaluator.h"
#include "math/rng.h"
#include "models/factory.h"
#include "xp/journal.h"

namespace kelpie {

/// -----------------------------------------------------------------------
/// End-to-end experiment pipeline (paper Section 5.3).
///
/// The methodology is retraining-based: explanations are extracted for a
/// sample P of correct test tail predictions, their facts are applied to
/// G_train (removed in the necessary scenario; transferred onto the
/// conversion entities and added in the sufficient scenario), the model is
/// retrained from scratch, and the change in H@1 / MRR over the involved
/// predictions is the measured effectiveness. RunEndToEnd is the one loop
/// behind the paper tables and `kelpie xp`.
/// -----------------------------------------------------------------------

/// Samples up to `count` distinct test facts whose filtered rank on the
/// predicted side is 1 (correct predictions). The paper's experiments use
/// tail predictions; the head direction uses the analogous methodology the
/// paper describes.
std::vector<Triple> SampleCorrectPredictions(
    const LinkPredictionModel& model, const Dataset& dataset, size_t count,
    PredictionTarget target, Rng& rng);

/// Tail-direction convenience wrapper.
std::vector<Triple> SampleCorrectTailPredictions(
    const LinkPredictionModel& model, const Dataset& dataset, size_t count,
    Rng& rng);

/// Warm-start policy of end-to-end verification retrains. Default (empty
/// checkpoint path) = historical behavior: every retrain starts from random
/// initialization with the full default epoch schedule.
struct RetrainOptions {
  /// Directory of a training checkpoint (ml/checkpoint.h) written by a
  /// base-model `kelpie train --checkpoint` run. When non-empty, each
  /// verification retrain seeds its parameters and optimizer state from
  /// that checkpoint (warm start, load-only) instead of random init, then
  /// trains on the modified dataset. Deterministic: every retrain loads the
  /// same base state, so warm runs are reproducible among themselves.
  std::string warm_start_checkpoint;
  /// Epoch count override for warm-started retrains (0 = keep the default
  /// schedule). A converged base state typically needs far fewer epochs to
  /// adapt to a few removed/added facts — this is where the warm-start
  /// speedup comes from (EXPERIMENTS.md).
  size_t warm_epochs = 0;
};

/// (H@1, MRR) of the predictions in `predictions` (measured on the
/// `target` side) under a model retrained on `dataset` modified by
/// removing `removed` and adding `added`. Retraining uses
/// DefaultConfig(kind, ...) and `retrain_seed`, warm-started per `retrain`.
LpMetrics RetrainAndMeasure(ModelKind kind, const Dataset& dataset,
                            const std::vector<Triple>& predictions,
                            const std::vector<Triple>& removed,
                            const std::vector<Triple>& added,
                            PredictionTarget target, uint64_t retrain_seed,
                            const RetrainOptions& retrain = {});

/// Tail-direction convenience wrapper.
LpMetrics RetrainAndMeasureTails(ModelKind kind, const Dataset& dataset,
                                 const std::vector<Triple>& predictions,
                                 const std::vector<Triple>& removed,
                                 const std::vector<Triple>& added,
                                 uint64_t retrain_seed);

/// The conversion predictions of a sufficient run, flattened: each entity
/// of a prediction's conversion set substitutes the source entity (the
/// head for tail predictions).
std::vector<Triple> ConversionPredictions(
    const std::vector<Triple>& predictions,
    const std::vector<std::vector<EntityId>>& conversion_sets,
    PredictionTarget target = PredictionTarget::kTail);

/// The facts a sufficient explanation adds to G_train: each explanation
/// fact transferred from the prediction's source entity onto every entity
/// of its conversion set.
std::vector<Triple> TransferredFacts(
    const std::vector<Triple>& predictions,
    const std::vector<Explanation>& explanations,
    const std::vector<std::vector<EntityId>>& conversion_sets,
    PredictionTarget target = PredictionTarget::kTail);

/// Result of one end-to-end run: (H@1, MRR) of the measured predictions
/// under the original model (`before`) and under the retrained one
/// (`after`). The necessary scenario measures P itself, so `before` is 1.0
/// for sampled correct predictions; the sufficient scenario measures the
/// fictitious conversion predictions P_C, which the original model does
/// not rank first (H@1 0 by construction of the conversion sets).
struct EndToEndResult {
  LpMetrics before;
  LpMetrics after;
  double delta_h1() const { return after.hits_at_1 - before.hits_at_1; }
  double delta_mrr() const { return after.mrr - before.mrr; }
  std::vector<Explanation> explanations;
  /// The conversion set of each prediction (aligned with `explanations`;
  /// every set is empty in the necessary scenario).
  std::vector<std::vector<EntityId>> conversion_sets;
};

/// Journal, interruption and retry policy of a run. The per-prediction
/// extraction limits live on the Explainer (Explainer::SetExtractionLimits);
/// this bundle governs the loop around it.
struct RunControl {
  /// Journal file of the run. Empty (the default) runs without a file:
  /// nothing is replayed or written, and the run is otherwise the same.
  std::string journal_path;
  /// True: replay complete records from an existing journal and continue
  /// after them. False: start fresh, discarding any existing journal.
  bool resume = false;
  /// Checked before each fresh extraction and before retraining; a run that
  /// observes it journals nothing further and returns kCancelled, so every
  /// finished prediction (including a truncated in-flight one the shared
  /// token stopped) is already flushed to disk.
  CancelToken cancel;
  /// Run-level absolute deadline; infinite by default. Checked at the same
  /// points as `cancel` and returns kDeadlineExceeded.
  Deadline deadline;
  /// With `resume`: journaled predictions whose completeness is not
  /// kComplete are re-extracted under the explainer's current limits
  /// instead of replayed, and the journal is rewritten in place (complete
  /// records re-appended byte-identically). An upgrade run with larger
  /// limits thus converges to the journal an uninterrupted run would have
  /// produced, byte for byte.
  bool retry_truncated = false;
  /// Warm-start policy of the run's verification retrains. Non-default
  /// options are folded into the journal run id (cold runs keep their
  /// historical ids), so a warm journal never resumes a cold run or vice
  /// versa.
  RetrainOptions retrain;
};

/// Runs one end-to-end experiment (paper Section 5.3) over `predictions`
/// on the `target` side. Each prediction is explained with `explainer` in
/// the `scenario` kind; a sufficient explanation is extracted against a
/// conversion set of up to `conversion_set_size` entities drawn from a
/// stream seeded by (conversion_seed, prediction, index), so every set is
/// the same whatever ran before it. The necessary scenario then removes
/// the union of the explanations' facts from G_train and measures P; the
/// sufficient one adds their transfer onto the conversion sets and
/// measures P_C. The retrain uses `retrain_seed` and control.retrain.
/// The necessary scenario ignores the two conversion parameters.
///
/// With control.journal_path set, each prediction's explanation is
/// appended to the journal before the next extraction starts, so a killed
/// run restarted with control.resume replays the finished predictions from
/// disk and produces byte-identical results. Explanations carry
/// `seconds = 0`, so replayed and fresh ones compare equal. Returns
/// `Status::FailedPrecondition` when the journal belongs to a different
/// run configuration (scenario, explainer, model, dataset, predictions,
/// seeds, warm start).
///
/// Test hook: failpoint `"pipeline.interrupt"` (value = prediction index)
/// aborts the run right after that prediction's record is journaled,
/// simulating a kill at a deterministic point.
Result<EndToEndResult> RunEndToEnd(
    Explainer& explainer, const LinkPredictionModel& original_model,
    ModelKind kind, const Dataset& dataset,
    const std::vector<Triple>& predictions, ExplanationKind scenario,
    size_t conversion_set_size, uint64_t conversion_seed,
    uint64_t retrain_seed, PredictionTarget target = PredictionTarget::kTail,
    const RunControl& control = {});

/// Minimality study (paper Section 5.4): replaces each explanation by a
/// random strict subset (uniform removal size in [1, len); length-1
/// explanations become empty) and returns the sub-sampled fact lists.
std::vector<std::vector<Triple>> SubsampleExplanations(
    const std::vector<Explanation>& explanations, Rng& rng);

/// The paper's effectiveness-loss percentage: (sub - full) / full, e.g.
/// full ΔH@1 = -0.90 and sub ΔH@1 = -0.30 give -66.7%.
double EffectivenessLoss(double full_delta, double sub_delta);

}  // namespace kelpie

#endif  // KELPIE_XP_PIPELINE_H_
