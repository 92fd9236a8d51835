#ifndef KELPIE_CORE_EXPLANATION_BUILDER_H_
#define KELPIE_CORE_EXPLANATION_BUILDER_H_

#include <functional>
#include <vector>

#include "common/budget.h"
#include "core/explanation.h"
#include "core/prefilter.h"
#include "core/relevance_engine.h"

namespace kelpie {

/// Options of the Explanation Builder (Section 4.3).
struct ExplanationBuilderOptions {
  /// i_max: the largest combination size explored (paper default: 4).
  size_t max_explanation_length = 4;
  /// ξ_n0: necessary acceptance threshold — expected rank worsening (paper
  /// default: 5).
  double necessary_threshold = 5.0;
  /// ξ_s0: sufficient acceptance threshold — expected fraction of the ideal
  /// rank improvement (paper default: 0.9).
  double sufficient_threshold = 0.9;
  /// Restrict to single-fact explanations (the paper's K1 baseline).
  bool k1_only = false;
  /// Footnote 2: ρ_i uses the average relevance of the last `rho_window`
  /// visited candidates for robustness to outliers.
  size_t rho_window = 10;
  /// Wall-clock guard: hard cap on true-relevance evaluations per size
  /// (generous; the stochastic policy almost always stops earlier).
  size_t max_visits_per_size = 150;
  /// Disables the stochastic early termination (every candidate up to
  /// max_visits_per_size is evaluated). Used by analysis benches such as
  /// the Figure 4 correlation study; never needed in production use.
  bool exhaustive = false;
  /// Seed of the probabilistic early-termination draws.
  uint64_t seed = 99;
};

/// Observes every candidate the builder submits to the Relevance Engine;
/// arguments are (combination size, preliminary relevance, true relevance).
/// Used to reproduce Figure 4.
using CandidateObserver =
    std::function<void(size_t, double, double)>;

/// The Explanation Builder searches the space of candidate explanations —
/// combinations of the Pre-Filtered facts — for the smallest combination
/// whose relevance passes the acceptance threshold (Algorithm 3).
///
/// Search order within each size class S_i follows *preliminary relevance*
/// (the mean of the member facts' individual relevances), and a
/// simulated-annealing-inspired stochastic policy abandons S_i when the
/// stream of true relevances decays relative to the best seen
/// (P(stop) = 1 - ρ_i).
///
/// Parallel extraction (RelevanceEngineOptions::num_threads > 1) uses the
/// engine's shared pool with *chunked visiting* semantics: the S_1 sweep is
/// evaluated fully in parallel (the sequential algorithm consults no
/// stopping rule inside it), and each S_i visit loop evaluates candidates
/// speculatively in deterministic chunks of num_threads, then replays the
/// sequential stopping policy (threshold exit, ρ_i draw) over the chunk in
/// preliminary order. Because every post-training is seeded from (engine
/// seed, entity, fact set) alone, the returned Explanation — facts,
/// relevance, accepted, visited_candidates — and the observer stream are
/// bitwise identical for any num_threads; only post_trainings and seconds
/// can differ (a mid-chunk stop discards already-evaluated speculative
/// candidates).
///
/// Bounded extraction: an `ExtractionControl` caps the search. The work
/// budget is charged at a fixed per-candidate cost (1 work unit = one
/// non-homologous post-training, so a sufficient candidate costs its
/// conversion-set size) inside the deterministic sequential replay, and
/// candidate allocations are pre-capped by the affordable remainder before
/// any parallel dispatch — a budget-truncated run therefore returns the
/// same bitwise-identical explanation at every thread count. Deadline and
/// cancellation are wall-clock overlays checked at candidate boundaries;
/// they stop the search at a schedule-dependent point and are *not*
/// reproducible. Either way the best explanation found so far is returned,
/// annotated with its Completeness and visited/skipped/divergent counts.
class ExplanationBuilder {
 public:
  ExplanationBuilder(RelevanceEngine& engine, const PreFilter& prefilter,
                     ExplanationBuilderOptions options)
      : engine_(engine), prefilter_(prefilter), options_(options) {}

  /// Extracts a necessary explanation for `prediction`.
  Explanation BuildNecessary(const Triple& prediction,
                             PredictionTarget target,
                             const CandidateObserver& observer = nullptr,
                             const ExtractionControl& control = {});

  /// Extracts a sufficient explanation for `prediction` against the given
  /// conversion set.
  Explanation BuildSufficient(const Triple& prediction,
                              PredictionTarget target,
                              const std::vector<EntityId>& conversion_set,
                              const CandidateObserver& observer = nullptr,
                              const ExtractionControl& control = {});

 private:
  using RelevanceFn = std::function<double(const std::vector<Triple>&)>;

  /// Runs Algorithm 3. `baselines` computes the extraction's homologous
  /// baselines; it runs once, before `relevance` scores the first candidate,
  /// and not at all when no candidate is evaluated.
  Explanation Search(ExplanationKind kind, const Triple& prediction,
                     PredictionTarget target, double threshold,
                     const std::function<void()>& baselines,
                     const RelevanceFn& relevance,
                     const CandidateObserver& observer,
                     const ExtractionControl& control, uint64_t unit_cost);

  RelevanceEngine& engine_;
  const PreFilter& prefilter_;
  ExplanationBuilderOptions options_;
};

/// A candidate combination with its preliminary relevance.
struct ScoredCombo {
  double preliminary;
  std::vector<size_t> indices;
};

/// Enumerates all k-combinations of {0..n-1} *lazily* and returns the
/// `limit` best by preliminary relevance (mean of `individual` over the
/// members), in descending order with lexicographic tie-breaking. Avoids
/// materializing the full combination space, which is binomial in n — the
/// exact blowup the Pre-Filter exists to prevent, and which the builder
/// must survive when the Pre-Filter is ablated (Figure 6). Empty when
/// k == 0, k > n or limit == 0.
std::vector<ScoredCombo> TopCombinationsByPreliminary(
    size_t n, size_t k, const std::vector<double>& individual, size_t limit);

}  // namespace kelpie

#endif  // KELPIE_CORE_EXPLANATION_BUILDER_H_
