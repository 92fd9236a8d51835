#include "core/relevance_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "common/logging.h"
#include "eval/ranking.h"

namespace kelpie {

namespace {

/// Removes every triple of `to_remove` from `facts` (exact matches). A
/// linear scan: candidates hold at most max_explanation_length facts.
std::vector<Triple> WithoutFacts(const std::vector<Triple>& facts,
                                 const std::vector<Triple>& to_remove) {
  std::vector<Triple> out;
  out.reserve(facts.size());
  for (const Triple& f : facts) {
    if (std::find(to_remove.begin(), to_remove.end(), f) == to_remove.end()) {
      out.push_back(f);
    }
  }
  return out;
}

/// Seed of a post-training RNG stream: a pure function of the engine seed,
/// the mimicked entity, and the exact fact sequence. Two post-trainings of
/// the same (entity, facts) produce the same mimic no matter which thread
/// runs them or in which order — the keystone of schedule-independent
/// parallel extraction.
uint64_t PostTrainSeed(uint64_t engine_seed, EntityId entity,
                       const std::vector<Triple>& facts) {
  return EntityFactsHash(engine_seed ^ 0x7c0ffee123456789ULL, entity, facts);
}

/// True when a post-trained mimic contains a non-finite value, i.e. the
/// per-candidate training diverged beyond what PR 2's recoveries repaired.
/// Ranking against such a vector would be garbage, so divergent candidates
/// degrade to a quiet-NaN relevance that the Explanation Builder skips and
/// records instead of aborting the whole extraction.
bool MimicDiverged(const std::vector<float>& mimic) {
  for (float v : mimic) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace

RelevanceEngine::EngineMetrics RelevanceEngine::EngineMetrics::Resolve() {
  metrics::Registry& reg = metrics::Registry::Global();
  constexpr auto kWallClock = metrics::Determinism::kWallClock;
  const char* post_help =
      "Post-trainings run, by mimic kind (raw work-site counts; "
      "schedule-dependent under parallel extraction).";
  return EngineMetrics{
      .post_train_homologous = reg.GetCounter(
          "kelpie_engine_post_trainings_total", {{"kind", "homologous"}},
          kWallClock, post_help),
      .post_train_necessary = reg.GetCounter(
          "kelpie_engine_post_trainings_total", {{"kind", "necessary"}},
          kWallClock, post_help),
      .post_train_sufficient = reg.GetCounter(
          "kelpie_engine_post_trainings_total", {{"kind", "sufficient"}},
          kWallClock, post_help),
      .diverged = reg.GetCounter(
          "kelpie_engine_diverged_post_trainings_total", {}, kWallClock,
          "Post-trainings whose mimic came out non-finite (degraded to "
          "skip-and-record)."),
  };
}

RelevanceEngine::RelevanceEngine(const LinkPredictionModel& model,
                                 const Dataset& dataset,
                                 RelevanceEngineOptions options)
    : model_(model),
      dataset_(dataset),
      options_(options),
      metrics_(EngineMetrics::Resolve()) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

std::vector<float> RelevanceEngine::PostTrain(
    EntityId entity, const std::vector<Triple>& facts) {
  auto compute = [&]() -> std::vector<float> {
    post_training_count_.fetch_add(1, std::memory_order_relaxed);
    Rng rng(PostTrainSeed(options_.seed, entity, facts));
    const std::span<const float> warm_init =
        options_.warm_start_mimics ? model_.EntityEmbedding(entity)
                                   : std::span<const float>{};
    std::vector<float> mimic =
        model_.PostTrainMimic(dataset_, entity, facts, rng, warm_init);
    // Fault injection: simulate an unrecoverable per-candidate divergence.
    // Keyed on the entity so tests can poison one baseline deterministically.
    if (failpoint::Fire("engine.post_train.diverge",
                        static_cast<uint64_t>(static_cast<uint32_t>(entity))) &&
        !mimic.empty()) {
      mimic[0] = std::numeric_limits<float>::quiet_NaN();
    }
    return mimic;
  };
  // The mimic is a pure function of (model parameters, seed, entity, facts),
  // so a persistent-cache answer is bitwise identical to computing: caching
  // changes latency and post_training_count(), never result bytes.
  if (options_.relevance_cache == nullptr) return compute();
  std::vector<float> mimic =
      options_.relevance_cache->GetOrCompute(entity, facts, compute);
  // A frame can verify and still hold a vector of another length (the file
  // was written for another shape); the rank sweeps read entity_dim()
  // floats, so treat it like a key collision and recompute uncached.
  if (mimic.size() != model_.entity_dim()) return compute();
  return mimic;
}

int RelevanceEngine::RankWithMimic(const Triple& prediction,
                                   PredictionTarget target, EntityId source,
                                   std::span<const float> mimic_vec) const {
  const RankingOptions ranking{options_.quantized_shortlist};
  if (target == PredictionTarget::kTail) {
    return FilteredTailRankWithHeadVec(model_, dataset_, source, mimic_vec,
                                       prediction.relation, prediction.tail,
                                       ranking);
  }
  return FilteredHeadRankWithTailVec(model_, dataset_, source, mimic_vec,
                                     prediction.relation, prediction.head,
                                     ranking);
}

int RelevanceEngine::HomologousRank(EntityId entity, const Triple& prediction,
                                    PredictionTarget target) {
  if (options_.use_original_rank_baseline) {
    // Ablation mode: compare non-homologous mimics against the original
    // entity's rank directly (no baseline post-training).
    return RankWithMimic(prediction, target, entity,
                         model_.EntityEmbedding(entity));
  }
  std::vector<float> mimic =
      PostTrain(entity, dataset_.train_graph().FactsOf(entity));
  metrics_.post_train_homologous.Increment();
  // A divergent baseline poisons every candidate that shares it: they all
  // degrade to skip-and-record without re-post-training the doomed mimic.
  if (MimicDiverged(mimic)) {
    metrics_.diverged.Increment();
    return kDivergedRank;
  }
  return RankWithMimic(prediction, target, entity, mimic);
}

std::vector<int> RelevanceEngine::HomologousRanks(
    const Triple& prediction, PredictionTarget target,
    const std::vector<EntityId>& conversion_set) {
  return ParallelMap(pool_.get(), conversion_set.size(), [&](size_t i) {
    return HomologousRank(conversion_set[i], prediction, target);
  });
}

double RelevanceEngine::NecessaryRelevance(
    const Triple& prediction, PredictionTarget target,
    const std::vector<Triple>& candidate, int homologous_rank) {
  const EntityId source = SourceEntity(prediction, target);
  // Algorithm 1, lines 1-2: homologous mimic h' on G^h_train (the caller's
  // baseline) and non-homologous mimic h'_{-X} on G^h_train \ X.
  if (homologous_rank == kDivergedRank) return kDivergedRelevance;
  std::vector<Triple> facts = dataset_.train_graph().FactsOf(source);
  std::vector<Triple> reduced = WithoutFacts(facts, candidate);
  std::vector<float> mimic = PostTrain(source, reduced);
  metrics_.post_train_necessary.Increment();
  if (MimicDiverged(mimic)) {
    metrics_.diverged.Increment();
    return kDivergedRelevance;
  }
  const int removed_rank = RankWithMimic(prediction, target, source, mimic);
  // Line 5: the rank deterioration is the necessary relevance.
  return static_cast<double>(removed_rank - homologous_rank);
}

double RelevanceEngine::SufficientRelevance(
    const Triple& prediction, PredictionTarget target,
    const std::vector<Triple>& candidate,
    const std::vector<EntityId>& conversion_set,
    const std::vector<int>& homologous_ranks) {
  KELPIE_CHECK(homologous_ranks.size() == conversion_set.size());
  const EntityId source = SourceEntity(prediction, target);
  if (conversion_set.empty()) return 0.0;
  auto contribution = [&](size_t i) -> double {
    const EntityId c = conversion_set[i];
    // Rank of the homologous mimic c' of the entity to convert.
    const int base_rank = homologous_ranks[i];
    if (base_rank == kDivergedRank) return kDivergedRelevance;
    if (base_rank <= 1) {
      // Already converted (post-training fluctuation); the ideal
      // improvement is zero — treat as fully achieved.
      return 1.0;
    }
    // Non-homologous mimic c'_{+X}: c's facts plus the candidate facts
    // transferred from the source entity to c.
    std::vector<Triple> facts = dataset_.train_graph().FactsOf(c);
    for (const Triple& f : candidate) {
      Triple transferred = TransferFact(f, source, c);
      if (std::find(facts.begin(), facts.end(), transferred) == facts.end()) {
        facts.push_back(transferred);
      }
    }
    std::vector<float> mimic = PostTrain(c, facts);
    metrics_.post_train_sufficient.Increment();
    if (MimicDiverged(mimic)) {
      metrics_.diverged.Increment();
      return kDivergedRelevance;
    }
    const int added_rank = RankWithMimic(prediction, target, c, mimic);
    // Line 7: achieved over ideal rank improvement.
    const double achieved = static_cast<double>(base_rank - added_rank);
    const double ideal = static_cast<double>(base_rank - 1);
    return achieved / ideal;
  };

  const std::vector<double> parts =
      ParallelMap(pool_.get(), conversion_set.size(), contribution);
  // Accumulate in conversion-set order: the sum (and thus the relevance) is
  // bitwise identical whatever the completion order was.
  double total = 0.0;
  for (double p : parts) total += p;
  return total / static_cast<double>(conversion_set.size());
}

std::vector<EntityId> RelevanceEngine::SampleConversionSet(
    const Triple& prediction, PredictionTarget target, Rng& rng) const {
  return SampleConversionEntities(model_, dataset_, prediction, target,
                                  options_.conversion_set_size, rng);
}

std::vector<EntityId> SampleConversionEntities(
    const LinkPredictionModel& model, const Dataset& dataset,
    const Triple& prediction, PredictionTarget target, size_t count,
    Rng& rng) {
  const EntityId source = SourceEntity(prediction, target);
  const EntityId predicted = PredictedEntity(prediction, target);
  std::vector<EntityId> out;
  const size_t n = dataset.num_entities();
  size_t attempts = 0;
  const size_t max_attempts = 50 * count + 200;
  while (out.size() < count && attempts < max_attempts) {
    ++attempts;
    EntityId c = static_cast<EntityId>(rng.UniformUint64(n));
    if (c == source || c == predicted) continue;
    if (std::find(out.begin(), out.end(), c) != out.end()) continue;
    if (dataset.train_graph().Degree(c) == 0) continue;
    Triple converted = prediction;
    if (target == PredictionTarget::kTail) {
      converted.head = c;
    } else {
      converted.tail = c;
    }
    if (dataset.IsKnown(converted)) continue;
    // The model already predicts it: nothing to convert.
    if (FilteredRank(model, dataset, converted, target) <= 1) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace kelpie
