#include "core/explanation_builder.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace kelpie {

namespace {

/// Per-size-class candidate accounting, accumulated locally during the
/// search and committed to the registry once at the end of the extraction.
/// The tallies are derived from the deterministic sequential replay (the
/// same bookkeeping that feeds Explanation::visited/skipped/divergent), so
/// the committed counters are metrics::Determinism::kDeterministic:
/// identical at every thread count for reproducible runs (budget-truncated
/// included; deadline/cancel truncation is schedule-dependent by contract).
struct StageTally {
  uint64_t visited = 0;
  uint64_t skipped = 0;
  uint64_t divergent = 0;
};

/// Commits one extraction's tallies to the process registry. Cold path: a
/// handful of locked lookups per extraction, nothing per candidate.
void CommitSearchMetrics(ExplanationKind kind, uint64_t unit,
                         const std::map<size_t, StageTally>& stages,
                         const Explanation& result) {
  metrics::Registry& reg = metrics::Registry::Global();
  constexpr auto kDet = metrics::Determinism::kDeterministic;
  const std::string kind_name = ExplanationKindName(kind);
  const char* candidates_help =
      "Candidate combinations by kind, size class (stage) and outcome, "
      "counted in the deterministic sequential replay.";
  for (const auto& [stage, tally] : stages) {
    const std::string stage_name = std::to_string(stage);
    if (tally.visited > 0) {
      reg.GetCounter("kelpie_builder_candidates_total",
                     {{"kind", kind_name},
                      {"stage", stage_name},
                      {"outcome", "visited"}},
                     kDet, candidates_help)
          .Increment(tally.visited);
    }
    if (tally.skipped > 0) {
      reg.GetCounter("kelpie_builder_candidates_total",
                     {{"kind", kind_name},
                      {"stage", stage_name},
                      {"outcome", "skipped"}},
                     kDet, candidates_help)
          .Increment(tally.skipped);
    }
    if (tally.divergent > 0) {
      reg.GetCounter("kelpie_builder_candidates_total",
                     {{"kind", kind_name},
                      {"stage", stage_name},
                      {"outcome", "divergent"}},
                     kDet, candidates_help)
          .Increment(tally.divergent);
    }
  }
  reg.GetCounter(
         "kelpie_builder_extractions_total",
         {{"kind", kind_name},
          {"completeness", std::string(CompletenessName(result.completeness))}},
         kDet, "Finished extractions by kind and completeness.")
      .Increment();
  reg.GetCounter(
         "kelpie_builder_committed_work_units_total", {{"kind", kind_name}},
         kDet,
         "Work units charged in the deterministic replay (unit cost x "
         "visited candidates; 1 unit = one non-homologous post-training).")
      .Increment(unit * static_cast<uint64_t>(result.visited_candidates));
  reg.GetHistogram("kelpie_builder_extraction_seconds",
                   metrics::ExponentialBuckets(0.001, 4.0, 12),
                   {{"kind", kind_name}}, metrics::Determinism::kWallClock,
                   "Wall-clock extraction time per explanation.")
      .Observe(result.seconds);
}

}  // namespace

std::vector<ScoredCombo> TopCombinationsByPreliminary(
    size_t n, size_t k, const std::vector<double>& individual,
    size_t limit) {
  if (k == 0 || k > n || limit == 0) return {};
  // Strict weak order: higher preliminary first, then lexicographic. As a
  // heap comparator it keeps the worst kept combination on top.
  auto better = [](const ScoredCombo& a, const ScoredCombo& b) {
    if (a.preliminary != b.preliminary) {
      return a.preliminary > b.preliminary;
    }
    return a.indices < b.indices;
  };
  std::vector<ScoredCombo> heap;
  std::vector<size_t> current(k);
  std::iota(current.begin(), current.end(), 0);
  while (true) {
    // Summed afresh in index order. A running sum would drift, which breaks
    // ties between equal means, and would turn a -inf member into NaN for
    // every later combination.
    double sum = 0.0;
    for (size_t idx : current) sum += individual[idx];
    const double preliminary = sum / static_cast<double>(k);
    if (heap.size() < limit) {
      heap.push_back({preliminary, current});
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (preliminary > heap.front().preliminary) {
      // Enumeration is lexicographic, so a tie with the worst kept
      // combination loses the tie-break and is not kept.
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = {preliminary, current};
      std::push_heap(heap.begin(), heap.end(), better);
    }
    // Advance to the next lexicographic combination.
    size_t i = k;
    while (i > 0 && current[i - 1] == i - 1 + n - k) --i;
    if (i == 0) break;
    ++current[i - 1];
    for (size_t j = i; j < k; ++j) current[j] = current[j - 1] + 1;
  }
  std::sort(heap.begin(), heap.end(), better);
  return heap;
}

Explanation ExplanationBuilder::BuildNecessary(
    const Triple& prediction, PredictionTarget target,
    const CandidateObserver& observer, const ExtractionControl& control) {
  int baseline = 0;
  auto baselines = [&] {
    baseline = engine_.HomologousRank(SourceEntity(prediction, target),
                                      prediction, target);
  };
  auto relevance = [&](const std::vector<Triple>& candidate) {
    return engine_.NecessaryRelevance(prediction, target, candidate,
                                      baseline);
  };
  // One necessary candidate costs one non-homologous post-training.
  return Search(ExplanationKind::kNecessary, prediction, target,
                options_.necessary_threshold, baselines, relevance, observer,
                control, /*unit_cost=*/1);
}

Explanation ExplanationBuilder::BuildSufficient(
    const Triple& prediction, PredictionTarget target,
    const std::vector<EntityId>& conversion_set,
    const CandidateObserver& observer, const ExtractionControl& control) {
  std::vector<int> baseline_ranks;
  auto baselines = [&] {
    baseline_ranks =
        engine_.HomologousRanks(prediction, target, conversion_set);
  };
  auto relevance = [&](const std::vector<Triple>& candidate) {
    return engine_.SufficientRelevance(prediction, target, candidate,
                                       conversion_set, baseline_ranks);
  };
  // One sufficient candidate post-trains a mimic per conversion entity.
  const uint64_t unit_cost =
      std::max<uint64_t>(1, static_cast<uint64_t>(conversion_set.size()));
  return Search(ExplanationKind::kSufficient, prediction, target,
                options_.sufficient_threshold, baselines, relevance, observer,
                control, unit_cost);
}

Explanation ExplanationBuilder::Search(ExplanationKind kind,
                                       const Triple& prediction,
                                       PredictionTarget target,
                                       double threshold,
                                       const std::function<void()>& baselines,
                                       const RelevanceFn& relevance,
                                       const CandidateObserver& observer,
                                       const ExtractionControl& control,
                                       uint64_t unit_cost) {
  Stopwatch timer;
  const size_t start_post_trainings = engine_.post_training_count();
  Rng rng(options_.seed ^ TripleHash()(prediction));

  Explanation result;
  result.kind = kind;

  const uint64_t unit = std::max<uint64_t>(1, unit_cost);
  std::map<size_t, StageTally> stage_tallies;
  auto interrupt = [&control] { return control.CheckInterrupt(); };
  auto finish = [&](std::vector<Triple> facts_out, double rel, bool accepted,
                    size_t visited_count) {
    result.facts = std::move(facts_out);
    result.relevance = rel;
    result.accepted = accepted;
    result.visited_candidates = visited_count;
    result.post_trainings =
        engine_.post_training_count() - start_post_trainings;
    result.seconds = timer.ElapsedSeconds();
    CommitSearchMetrics(kind, unit, stage_tallies, result);
    return result;
  };

  const std::vector<Triple> facts =
      prefilter_.MostPromisingFacts(prediction, target);
  if (facts.empty()) {
    return finish({}, 0.0, false, 0);
  }

  // ---- S_1: individual relevances (Algorithm 3, lines 1-3). ----
  // The sequential algorithm evaluates every single-fact candidate before
  // consulting the threshold, so S_1 parallelizes without any speculation:
  // compute all relevances across the pool, then fold sequentially in fact
  // order (observer calls, best tracking).
  ThreadPool* pool = engine_.pool();

  // Budget pre-cap, computed before any dispatch and therefore identical at
  // every thread count: evaluate only the affordable prefix of the sweep.
  // An incomplete sweep is a truncation even if its best is accepted — the
  // untruncated algorithm would have seen every single-fact candidate.
  size_t planned = facts.size();
  {
    const uint64_t affordable = control.BudgetRemaining() / unit;
    if (affordable < planned) {
      planned = static_cast<size_t>(affordable);
      result.completeness = Completeness::kTruncatedBudget;
    }
  }
  result.skipped_candidates += facts.size() - planned;
  stage_tallies[1].skipped += facts.size() - planned;

  // The extraction's homologous baselines, computed once before its first
  // candidate. An extraction that evaluates no candidate post-trains none.
  if (planned > 0 && control.CheckInterrupt().ok()) baselines();

  ParallelOutcome outcome;
  std::vector<double> individual = CancellableParallelMap(
      pool, planned, [&](size_t i) { return relevance({facts[i]}); },
      interrupt, &outcome);
  result.skipped_candidates += planned - individual.size();
  stage_tallies[1].skipped += planned - individual.size();

  size_t visited = 0;
  double best_relevance = 0.0;
  std::vector<Triple> best_facts;
  bool have_best = false;
  for (size_t i = 0; i < individual.size(); ++i) {
    // Charged in the deterministic fold. The pre-cap sized the sweep so the
    // charge cannot fail for a per-extraction budget; a budget shared with
    // concurrent extractions may still run dry, which truncates here.
    if (!control.TryCharge(unit)) {
      result.completeness = Completeness::kTruncatedBudget;
      result.skipped_candidates += individual.size() - i;
      stage_tallies[1].skipped += individual.size() - i;
      individual.resize(i);
      break;
    }
    const double r = individual[i];
    ++visited;
    ++stage_tallies[1].visited;
    if (std::isnan(r)) {
      // Diverged post-training: visited and charged, but excluded from the
      // observer stream and from best-so-far tracking.
      ++result.divergent_candidates;
      ++stage_tallies[1].divergent;
      continue;
    }
    if (observer) observer(1, r, r);
    if (!have_best || r > best_relevance) {
      best_relevance = r;
      best_facts = {facts[i]};
      have_best = true;
    }
  }
  if (have_best && best_relevance >= threshold) {
    return finish(std::move(best_facts), best_relevance, true, visited);
  }
  if (options_.k1_only) {
    return finish(std::move(best_facts), best_relevance, false, visited);
  }
  if (!outcome.status.ok()) {
    result.completeness = CompletenessFromStatus(outcome.status);
    return finish(std::move(best_facts), best_relevance, false, visited);
  }
  if (individual.size() < facts.size()) {
    // Budget-truncated sweep: the S_i ranking needs every individual
    // relevance, and the remainder cannot afford a single candidate anyway.
    return finish(std::move(best_facts), best_relevance, false, visited);
  }

  // Divergent single-fact candidates get the worst possible preliminary
  // score: a NaN basis would poison the S_i ranking comparators.
  std::vector<double> preliminary_basis = individual;
  for (double& v : preliminary_basis) {
    if (std::isnan(v)) v = -std::numeric_limits<double>::infinity();
  }

  // ---- S_i for i >= 2 (Algorithm 3, lines 4-21). ----
  const size_t i_max =
      std::min(options_.max_explanation_length, facts.size());
  for (size_t size = 2; size <= i_max; ++size) {
    // Preliminary relevance ranking (lines 7-9): the best
    // max_visits_per_size combinations by mean individual relevance,
    // selected lazily (the visit loop can never consume more than that).
    std::vector<ScoredCombo> combos = TopCombinationsByPreliminary(
        facts.size(), size, preliminary_basis, options_.max_visits_per_size);

    // Visit in descending preliminary relevance (lines 10-21).
    //
    // The threshold early-exit and the stochastic ρ_i stop make the visit
    // loop inherently sequential, so parallelism is speculative: candidates
    // are evaluated in deterministic chunks of num_threads, then the
    // sequential stopping policy is *replayed* over the chunk's relevances
    // in preliminary order. A stop discards the rest of the chunk. The
    // visible outcome (facts, relevance, accepted, visited_candidates,
    // observer stream, rng draws) is therefore bitwise identical for every
    // num_threads, including 1; only post_trainings and seconds may grow
    // with the speculatively evaluated remainder of the stopping chunk.
    //
    // Budget truncation inherits the same guarantee: each chunk allocation
    // is pre-capped by the affordable remainder, and charges happen in the
    // replay, so a budgeted run truncates at the same candidate everywhere.
    const size_t chunk_size = std::max<size_t>(1, engine_.num_threads());
    double best_in_size = 0.0;
    bool have_best_in_size = false;
    std::deque<double> recent;
    size_t visits_in_size = 0;
    bool stop_size = false;
    size_t begin = 0;
    while (begin < combos.size() && !stop_size) {
      size_t take = std::min(chunk_size, combos.size() - begin);
      const uint64_t affordable = control.BudgetRemaining() / unit;
      if (affordable < take) {
        take = static_cast<size_t>(affordable);
        if (take == 0) {
          result.completeness = Completeness::kTruncatedBudget;
          result.skipped_candidates += combos.size() - begin;
          stage_tallies[size].skipped += combos.size() - begin;
          return finish(std::move(best_facts), best_relevance, false,
                        visited);
        }
      }
      std::vector<std::vector<Triple>> candidates(take);
      for (size_t k = 0; k < take; ++k) {
        candidates[k].reserve(size);
        for (size_t idx : combos[begin + k].indices) {
          candidates[k].push_back(facts[idx]);
        }
      }
      const std::vector<double> relevances = CancellableParallelMap(
          pool, take, [&](size_t k) { return relevance(candidates[k]); },
          interrupt, &outcome);

      // Sequential replay of the stopping policy over the evaluated chunk.
      for (size_t k = 0; k < relevances.size(); ++k) {
        if (visits_in_size >= options_.max_visits_per_size) {
          stop_size = true;
          break;
        }
        if (!control.TryCharge(unit)) {
          result.completeness = Completeness::kTruncatedBudget;
          result.skipped_candidates += combos.size() - (begin + k);
          stage_tallies[size].skipped += combos.size() - (begin + k);
          return finish(std::move(best_facts), best_relevance, false,
                        visited);
        }
        const ScoredCombo& combo = combos[begin + k];
        const double cur = relevances[k];
        ++visited;
        ++visits_in_size;
        ++stage_tallies[size].visited;
        if (std::isnan(cur)) {
          ++result.divergent_candidates;
          ++stage_tallies[size].divergent;
          continue;
        }
        if (observer) observer(size, combo.preliminary, cur);
        recent.push_back(cur);
        if (recent.size() > options_.rho_window) recent.pop_front();

        if (cur >= threshold) {
          // Acceptance during the replay is kComplete: the accepted prefix
          // is exactly what the untruncated sequential run would have seen.
          return finish(candidates[k], cur, true, visited);
        }
        if (cur > best_relevance) {
          best_relevance = cur;
          best_facts = candidates[k];
        }
        if (!have_best_in_size || cur > best_in_size) {
          best_in_size = cur;
          have_best_in_size = true;
        } else if (!options_.exhaustive) {
          // ρ_i: smoothed current relevance over the best in S_i
          // (footnote 2), clamped to [0, 1]; stop S_i with prob 1 - ρ_i.
          double smoothed =
              std::accumulate(recent.begin(), recent.end(), 0.0) /
              static_cast<double>(recent.size());
          double rho = best_in_size > 0.0 ? smoothed / best_in_size : 1.0;
          rho = std::clamp(rho, 0.0, 1.0);
          if (rng.UniformDouble() > rho) {
            stop_size = true;
            break;
          }
        }
      }
      if (!outcome.status.ok()) {
        result.completeness = CompletenessFromStatus(outcome.status);
        result.skipped_candidates +=
            combos.size() - (begin + relevances.size());
        stage_tallies[size].skipped +=
            combos.size() - (begin + relevances.size());
        return finish(std::move(best_facts), best_relevance, false, visited);
      }
      begin += take;
    }
  }

  // Best-effort (Section 4.3): no candidate met the threshold.
  return finish(std::move(best_facts), best_relevance, false, visited);
}

}  // namespace kelpie
