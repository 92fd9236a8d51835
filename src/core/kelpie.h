#ifndef KELPIE_CORE_KELPIE_H_
#define KELPIE_CORE_KELPIE_H_

#include <memory>

#include "common/budget.h"
#include "core/explanation_builder.h"
#include "core/prefilter.h"
#include "core/relevance_engine.h"

namespace kelpie {

/// Per-extraction resource limits. Default-constructed = unlimited: every
/// limit is opt-in, and an unlimited extraction behaves exactly as if this
/// layer did not exist.
struct ExtractionLimits {
  /// Work-unit budget per extraction call; 0 = unlimited. One unit = one
  /// non-homologous post-training, so a necessary candidate costs 1 and a
  /// sufficient candidate costs its conversion-set size. Budget truncation
  /// is bitwise-deterministic across machines and thread counts.
  uint64_t work_budget = 0;
  /// Wall-clock timeout for this extraction, in seconds; 0 = none. Not
  /// reproducible — use work_budget when determinism matters.
  double timeout_seconds = 0.0;
  /// Absolute steady-clock deadline overlay (infinite by default); combined
  /// with timeout_seconds via Deadline::Earliest.
  Deadline deadline;
  /// Cooperative cancellation; the CLI wires this to SIGINT/SIGTERM.
  CancelToken cancel;
};

/// Bundled options of the three Kelpie modules.
struct KelpieOptions {
  PreFilterOptions prefilter;
  RelevanceEngineOptions engine;
  ExplanationBuilderOptions builder;
};

/// The Kelpie framework facade (Figure 1): wires the Pre-Filter, the
/// Relevance Engine and the Explanation Builder over a trained model and
/// its dataset, and exposes the two extraction entry points.
///
/// The model and dataset must outlive the Kelpie instance. One instance may
/// explain any number of predictions, and no call depends on an earlier
/// one: the same query returns the same Explanation whatever the instance
/// explained before — `post_trainings` included, unless a relevance cache
/// (RelevanceEngineOptions::relevance_cache) answers some of them.
///
/// Typical use:
///
///   Kelpie kelpie(*model, dataset, {});
///   Explanation x = kelpie.ExplainNecessary(prediction);
///   std::cout << x.ToString(dataset) << "\n";
class Kelpie {
 public:
  Kelpie(const LinkPredictionModel& model, const Dataset& dataset,
         KelpieOptions options = {});

  /// Extracts the necessary explanation of `prediction`: the smallest set
  /// of source-entity training facts whose removal is expected to change
  /// the predicted answer. `limits` bounds the extraction; the returned
  /// Explanation's `completeness` says whether a limit truncated the
  /// search.
  Explanation ExplainNecessary(const Triple& prediction,
                               PredictionTarget target =
                                   PredictionTarget::kTail,
                               const CandidateObserver& observer = nullptr,
                               const ExtractionLimits& limits = {});

  /// Extracts the sufficient explanation of `prediction`: the smallest set
  /// of source-entity training facts that converts a random set C of other
  /// entities to the same answer. The conversion set is sampled internally
  /// from a fresh `Rng(engine seed)`, so it depends on the query alone;
  /// pass `conversion_set_out` to retrieve it (e.g. for end-to-end
  /// verification).
  Explanation ExplainSufficient(const Triple& prediction,
                                PredictionTarget target =
                                    PredictionTarget::kTail,
                                std::vector<EntityId>* conversion_set_out =
                                    nullptr,
                                const CandidateObserver& observer = nullptr,
                                const ExtractionLimits& limits = {});

  /// Sufficient explanation against a caller-provided conversion set (used
  /// by the end-to-end pipeline so that all frameworks convert the same
  /// entities).
  Explanation ExplainSufficientWithSet(
      const Triple& prediction, PredictionTarget target,
      const std::vector<EntityId>& conversion_set,
      const CandidateObserver& observer = nullptr,
      const ExtractionLimits& limits = {});

  RelevanceEngine& engine() { return engine_; }
  const PreFilter& prefilter() const { return prefilter_; }
  const KelpieOptions& options() const { return options_; }

 private:
  KelpieOptions options_;
  PreFilter prefilter_;
  RelevanceEngine engine_;
  ExplanationBuilder builder_;
};

}  // namespace kelpie

#endif  // KELPIE_CORE_KELPIE_H_
