#ifndef KELPIE_EVAL_RANKING_H_
#define KELPIE_EVAL_RANKING_H_

#include <span>
#include <unordered_set>

#include "kgraph/dataset.h"
#include "kgraph/triple.h"
#include "models/model.h"

namespace kelpie {

/// Rank of `target` within `scores` following the paper's Equation (2):
/// rank = |{e : φ(e) >= φ(target)}|, so the best possible rank is 1 and
/// ties count against the target. When `filtered_out` is non-null, entities
/// it contains (other than the target itself) are skipped — the paper's
/// filtered setting.
int RankFromScores(std::span<const float> scores, EntityId target,
                   const std::unordered_set<EntityId>* filtered_out);

/// Options for the filtered-rank computations.
struct RankingOptions {
  /// Serve the rank through the certified int8 candidate sweep, exactly
  /// re-scoring only the candidates whose quantization-error interval
  /// straddles the target's score (DESIGN.md §15). The result is
  /// byte-identical to the exact sweep by construction; models that cannot
  /// expose a closed-form sweep (CandidateSweep) silently fall back.
  bool quantized_shortlist = false;
};

/// Filtered tail rank of `fact` under `model`: the rank of fact.tail among
/// all candidate tails of <fact.head, fact.relation, ?>.
int FilteredTailRank(const LinkPredictionModel& model, const Dataset& dataset,
                     const Triple& fact, const RankingOptions& options = {});

/// Filtered head rank of `fact`.
int FilteredHeadRank(const LinkPredictionModel& model, const Dataset& dataset,
                     const Triple& fact, const RankingOptions& options = {});

/// Filtered tail rank where the head embedding is `head_vec` standing in
/// for entity `head_entity` (mimic evaluation). Filtering still uses the
/// known tails of (head_entity, relation).
int FilteredTailRankWithHeadVec(const LinkPredictionModel& model,
                                const Dataset& dataset, EntityId head_entity,
                                std::span<const float> head_vec,
                                RelationId relation, EntityId target_tail,
                                const RankingOptions& options = {});

/// Filtered head rank with an override tail vector (mimic evaluation).
int FilteredHeadRankWithTailVec(const LinkPredictionModel& model,
                                const Dataset& dataset, EntityId tail_entity,
                                std::span<const float> tail_vec,
                                RelationId relation, EntityId target_head,
                                const RankingOptions& options = {});

/// The rank on the predicted side of `fact`: tail rank when `target` is
/// kTail, head rank otherwise.
int FilteredRank(const LinkPredictionModel& model, const Dataset& dataset,
                 const Triple& fact, PredictionTarget target,
                 const RankingOptions& options = {});

}  // namespace kelpie

#endif  // KELPIE_EVAL_RANKING_H_
