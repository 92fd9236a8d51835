#ifndef KELPIE_EVAL_EVALUATOR_H_
#define KELPIE_EVAL_EVALUATOR_H_

#include <vector>

#include "eval/metrics.h"
#include "eval/ranking.h"

namespace kelpie {

/// Options for a full evaluation pass.
struct EvalOptions {
  /// Evaluate head predictions in addition to tail predictions (the
  /// standard protocol averages both directions). Head ranking is the
  /// expensive direction for ConvE; single-direction evaluation is used by
  /// the explanation pipeline, which only measures the predicted side.
  bool include_heads = true;
  /// Worker threads for ranking. Every fact is ranked independently
  /// against the immutable model, so parallel evaluation is bit-identical
  /// to sequential (ranks are accumulated in fact order regardless of
  /// completion order). 1 = sequential.
  size_t num_threads = 1;
  /// Serve each rank through the certified int8 shortlist (byte-identical
  /// results; see RankingOptions::quantized_shortlist).
  bool quantized_shortlist = false;
};

/// Result of evaluating a model over a set of facts.
struct EvalResult {
  MetricsAccumulator tail_ranks;
  MetricsAccumulator head_ranks;

  /// Combined H@1 over both directions (or tails only when heads were
  /// skipped).
  double HitsAt1() const;
  /// Combined MRR.
  double Mrr() const;
  double HitsAt(int k) const;
};

/// Runs the paper's evaluation protocol (Section 2.1): for each fact, rank
/// the target entity against all entities in the filtered setting.
EvalResult Evaluate(const LinkPredictionModel& model, const Dataset& dataset,
                    const std::vector<Triple>& facts,
                    const EvalOptions& options = {});

/// Evaluates over dataset.test().
EvalResult EvaluateTest(const LinkPredictionModel& model,
                        const Dataset& dataset,
                        const EvalOptions& options = {});

}  // namespace kelpie

#endif  // KELPIE_EVAL_EVALUATOR_H_
