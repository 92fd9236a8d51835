#include "eval/evaluator.h"

#include <memory>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace kelpie {

namespace {

/// Commits one evaluation's metrics. The rank counter is deterministic
/// (ranks are accumulated in fact order on every path); the timing series
/// are wall-clock class and masked in deterministic snapshots.
void CommitEvalMetrics(size_t ranks, double seconds) {
  metrics::Registry& reg = metrics::Registry::Global();
  reg.GetCounter("kelpie_eval_ranks_total", {},
                 metrics::Determinism::kDeterministic,
                 "Filtered ranks computed over evaluation facts.")
      .Increment(ranks);
  reg.GetHistogram("kelpie_eval_seconds",
                   metrics::ExponentialBuckets(0.001, 4.0, 12), {},
                   metrics::Determinism::kWallClock,
                   "Wall-clock time per Evaluate() call.")
      .Observe(seconds);
  reg.GetGauge("kelpie_eval_ranks_per_second", {},
               metrics::Determinism::kWallClock,
               "Ranking throughput of the last Evaluate() call.")
      .Set(seconds > 0.0 ? static_cast<double>(ranks) / seconds : 0.0);
}

}  // namespace

double EvalResult::HitsAt1() const { return HitsAt(1); }

double EvalResult::HitsAt(int k) const {
  const size_t n = tail_ranks.count() + head_ranks.count();
  if (n == 0) return 0.0;
  double hits = tail_ranks.HitsAt(k) * static_cast<double>(tail_ranks.count()) +
                head_ranks.HitsAt(k) * static_cast<double>(head_ranks.count());
  return hits / static_cast<double>(n);
}

double EvalResult::Mrr() const {
  const size_t n = tail_ranks.count() + head_ranks.count();
  if (n == 0) return 0.0;
  double acc = tail_ranks.Mrr() * static_cast<double>(tail_ranks.count()) +
               head_ranks.Mrr() * static_cast<double>(head_ranks.count());
  return acc / static_cast<double>(n);
}

namespace {

EvalResult EvaluateImpl(const LinkPredictionModel& model,
                        const Dataset& dataset,
                        const std::vector<Triple>& facts,
                        const EvalOptions& options) {
  const RankingOptions ranking{options.quantized_shortlist};
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  // Rank into per-fact slots, then accumulate in fact order so the result
  // is the same at every thread count.
  std::vector<int> tail_ranks(facts.size());
  std::vector<int> head_ranks(options.include_heads ? facts.size() : 0);
  ParallelFor(pool.get(), facts.size(), [&](size_t i) {
    tail_ranks[i] = FilteredTailRank(model, dataset, facts[i], ranking);
    if (options.include_heads) {
      head_ranks[i] = FilteredHeadRank(model, dataset, facts[i], ranking);
    }
  });
  EvalResult result;
  for (size_t i = 0; i < facts.size(); ++i) {
    result.tail_ranks.AddRank(tail_ranks[i]);
    if (options.include_heads) {
      result.head_ranks.AddRank(head_ranks[i]);
    }
  }
  return result;
}

}  // namespace

EvalResult Evaluate(const LinkPredictionModel& model, const Dataset& dataset,
                    const std::vector<Triple>& facts,
                    const EvalOptions& options) {
  trace::Span eval_span("eval");
  Stopwatch timer;
  EvalResult result = EvaluateImpl(model, dataset, facts, options);
  CommitEvalMetrics(result.tail_ranks.count() + result.head_ranks.count(),
                    timer.ElapsedSeconds());
  return result;
}

EvalResult EvaluateTest(const LinkPredictionModel& model,
                        const Dataset& dataset, const EvalOptions& options) {
  return Evaluate(model, dataset, dataset.test(), options);
}

}  // namespace kelpie
