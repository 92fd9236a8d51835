#include "core/relevance_engine.h"

#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/kelpie.h"
#include "eval/ranking.h"
#include "math/quant.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

class RelevanceEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_);
    // Pick a test prediction the model actually gets right, so relevance
    // semantics are meaningful.
    for (const Triple& t : dataset_->test()) {
      if (FilteredTailRank(*model_, *dataset_, t) == 1) {
        prediction_ = t;
        found_ = true;
        break;
      }
    }
  }

  /// The homologous baseline of the prediction's source entity.
  int Baseline(RelevanceEngine& engine) const {
    return engine.HomologousRank(prediction_.head, prediction_,
                                 PredictionTarget::kTail);
  }

  Triple BornInFactOf(EntityId person) const {
    for (const Triple& f : dataset_->train_graph().FactsOf(person)) {
      if (f.relation == 0 && f.head == person) return f;  // born_in
    }
    return Triple();
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
  Triple prediction_;
  bool found_ = false;
};

TEST_F(RelevanceEngineTest, NecessaryRelevanceOfKeyFactIsHigh) {
  ASSERT_TRUE(found_);
  RelevanceEngine engine(*model_, *dataset_, {});
  Triple born = BornInFactOf(prediction_.head);
  ASSERT_NE(born.head, kNoEntity);
  double key_rel = engine.NecessaryRelevance(
      prediction_, PredictionTarget::kTail, {born}, Baseline(engine));
  // Removing the born_in fact removes the entire evidence chain for the
  // nationality prediction; the rank should deteriorate.
  EXPECT_GT(key_rel, 0.0);
}

TEST_F(RelevanceEngineTest, NecessaryRelevanceBoundedByEntityCount) {
  ASSERT_TRUE(found_);
  RelevanceEngine engine(*model_, *dataset_, {});
  Triple born = BornInFactOf(prediction_.head);
  double rel = engine.NecessaryRelevance(
      prediction_, PredictionTarget::kTail, {born}, Baseline(engine));
  EXPECT_LE(rel, static_cast<double>(dataset_->num_entities()) - 1.0);
  EXPECT_GE(rel, -(static_cast<double>(dataset_->num_entities()) - 1.0));
}

TEST_F(RelevanceEngineTest, EmptyCandidateHasNearZeroNecessaryRelevance) {
  ASSERT_TRUE(found_);
  RelevanceEngine engine(*model_, *dataset_, {});
  // Removing nothing compares a homologous mimic against another
  // homologous mimic; the expected deterioration is ~0 (post-training
  // noise allows small fluctuations).
  double rel = engine.NecessaryRelevance(prediction_, PredictionTarget::kTail,
                                         {}, Baseline(engine));
  EXPECT_LT(std::abs(rel), 8.0);
}

TEST_F(RelevanceEngineTest, PostTrainingCountIncreases) {
  ASSERT_TRUE(found_);
  RelevanceEngine engine(*model_, *dataset_, {});
  EXPECT_EQ(engine.post_training_count(), 0u);
  Triple born = BornInFactOf(prediction_.head);
  const int baseline = Baseline(engine);
  EXPECT_EQ(engine.post_training_count(), 1u);
  engine.NecessaryRelevance(prediction_, PredictionTarget::kTail, {born},
                            baseline);
  // One homologous + one non-homologous mimic.
  EXPECT_EQ(engine.post_training_count(), 2u);
  // The caller's baseline is reused; only the removal mimic re-runs.
  engine.NecessaryRelevance(prediction_, PredictionTarget::kTail, {born},
                            baseline);
  EXPECT_EQ(engine.post_training_count(), 3u);
}

TEST_F(RelevanceEngineTest, ConversionSetExcludesAlreadyCorrectEntities) {
  ASSERT_TRUE(found_);
  RelevanceEngineOptions options;
  options.conversion_set_size = 5;
  RelevanceEngine engine(*model_, *dataset_, options);
  Rng rng(options.seed);
  std::vector<EntityId> set =
      engine.SampleConversionSet(prediction_, PredictionTarget::kTail, rng);
  EXPECT_LE(set.size(), 5u);
  for (EntityId c : set) {
    EXPECT_NE(c, prediction_.head);
    Triple converted = prediction_;
    converted.head = c;
    EXPECT_FALSE(dataset_->IsKnown(converted));
    EXPECT_GT(FilteredTailRank(*model_, *dataset_, converted), 1);
  }
}

TEST_F(RelevanceEngineTest, SufficientRelevanceOfFullFactSetIsPositive) {
  ASSERT_TRUE(found_);
  RelevanceEngineOptions options;
  options.conversion_set_size = 4;
  RelevanceEngine engine(*model_, *dataset_, options);
  Rng rng(options.seed);
  std::vector<EntityId> set =
      engine.SampleConversionSet(prediction_, PredictionTarget::kTail, rng);
  ASSERT_FALSE(set.empty());
  // Transfer the strongest evidence: the whole fact set of the source.
  std::vector<Triple> facts =
      dataset_->train_graph().FactsOf(prediction_.head);
  double rel = engine.SufficientRelevance(
      prediction_, PredictionTarget::kTail, facts, set,
      engine.HomologousRanks(prediction_, PredictionTarget::kTail, set));
  EXPECT_GT(rel, 0.0);
  EXPECT_LE(rel, 1.0 + 1e-9);
}

TEST_F(RelevanceEngineTest, SufficientRelevanceEmptySetIsZero) {
  ASSERT_TRUE(found_);
  RelevanceEngine engine(*model_, *dataset_, {});
  double rel = engine.SufficientRelevance(
      prediction_, PredictionTarget::kTail, {BornInFactOf(prediction_.head)},
      {}, {});
  EXPECT_DOUBLE_EQ(rel, 0.0);
  EXPECT_EQ(engine.post_training_count(), 0u);
}

TEST_F(RelevanceEngineTest, ConcurrentNecessaryRelevanceSharesOneBaseline) {
  ASSERT_TRUE(found_);
  RelevanceEngine engine(*model_, *dataset_, {});
  const Triple born = BornInFactOf(prediction_.head);
  ASSERT_NE(born.head, kNoEntity);
  // The sequential reference value.
  RelevanceEngine reference(*model_, *dataset_, {});
  const double expected = reference.NecessaryRelevance(
      prediction_, PredictionTarget::kTail, {born}, Baseline(reference));
  // One baseline shared by every thread, as the Explanation Builder does.
  const int baseline = Baseline(engine);

  constexpr size_t kThreads = 8;
  std::vector<double> rels(kThreads, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      rels[i] = engine.NecessaryRelevance(
          prediction_, PredictionTarget::kTail, {born}, baseline);
    });
  }
  for (std::thread& t : threads) t.join();

  // Post-trainings seeded from (seed, entity, fact set) make every thread
  // compute the exact same relevance as the sequential engine.
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(rels[i], expected) << "thread " << i;
  }
  // Exactly one baseline post-training ran, plus one removal post-training
  // per thread.
  EXPECT_EQ(engine.post_training_count(), kThreads + 1);
}

TEST_F(RelevanceEngineTest, ParallelSufficientMatchesSequentialBitwise) {
  ASSERT_TRUE(found_);
  RelevanceEngineOptions sampler_options;
  sampler_options.conversion_set_size = 6;
  RelevanceEngine sampler(*model_, *dataset_, sampler_options);
  Rng rng(sampler_options.seed);
  const std::vector<EntityId> set =
      sampler.SampleConversionSet(prediction_, PredictionTarget::kTail, rng);
  ASSERT_FALSE(set.empty());
  const std::vector<Triple> candidate = {BornInFactOf(prediction_.head)};

  RelevanceEngineOptions sequential;
  sequential.num_threads = 1;
  RelevanceEngineOptions parallel;
  parallel.num_threads = 4;
  RelevanceEngine engine1(*model_, *dataset_, sequential);
  RelevanceEngine engine4(*model_, *dataset_, parallel);
  const std::vector<int> ranks1 =
      engine1.HomologousRanks(prediction_, PredictionTarget::kTail, set);
  const std::vector<int> ranks4 =
      engine4.HomologousRanks(prediction_, PredictionTarget::kTail, set);
  EXPECT_EQ(ranks1, ranks4);
  const double a = engine1.SufficientRelevance(
      prediction_, PredictionTarget::kTail, candidate, set, ranks1);
  const double b = engine4.SufficientRelevance(
      prediction_, PredictionTarget::kTail, candidate, set, ranks4);
  EXPECT_EQ(a, b);  // bitwise: contributions accumulate in set order
  EXPECT_EQ(engine1.post_training_count(), engine4.post_training_count());
}

TEST_F(RelevanceEngineTest, RepeatedPostTrainingsAreScheduleIndependent) {
  ASSERT_TRUE(found_);
  // Calling the same relevance twice, baseline included, must yield the
  // same value: the post-training RNG depends only on the fact set, not on
  // how many post-trainings ran before it.
  RelevanceEngine engine(*model_, *dataset_, {});
  const Triple born = BornInFactOf(prediction_.head);
  const double first = engine.NecessaryRelevance(
      prediction_, PredictionTarget::kTail, {born}, Baseline(engine));
  const double second = engine.NecessaryRelevance(
      prediction_, PredictionTarget::kTail, {born}, Baseline(engine));
  EXPECT_EQ(first, second);
}

// At num_threads = 1 the engine's raw work counters are exact (DESIGN §10):
// no speculative chunk remainder. These tests pin the per-extraction
// arithmetic the registry must report: one homologous baseline per
// necessary extraction, |C| per sufficient one, and none carried over to
// the next extraction.
TEST_F(RelevanceEngineTest, NecessaryExtractionPostTrainsOneBaseline) {
  ASSERT_TRUE(found_);
  metrics::ScopedRegistry scoped;
  // Constructed after the swap: the engine resolves its handles from the
  // scoped registry.
  KelpieOptions options;
  options.engine.num_threads = 1;
  Kelpie kelpie(*model_, *dataset_, options);
  metrics::Registry& reg = metrics::Registry::Global();
  auto count = [&reg](const char* kind) {
    return reg.GetCounter("kelpie_engine_post_trainings_total",
                          {{"kind", kind}})
        .Value();
  };

  const Explanation x = kelpie.ExplainNecessary(prediction_);
  ASSERT_GT(x.visited_candidates, 0u);
  EXPECT_EQ(count("homologous"), 1u);
  EXPECT_EQ(count("necessary"), x.visited_candidates);
  EXPECT_EQ(x.post_trainings, 1 + x.visited_candidates);

  // The second extraction computes its own baseline again.
  const Explanation y = kelpie.ExplainNecessary(prediction_);
  EXPECT_EQ(y.post_trainings, x.post_trainings);
  EXPECT_EQ(count("homologous"), 2u);
  EXPECT_EQ(count("necessary"), 2 * x.visited_candidates);
  EXPECT_EQ(count("sufficient"), 0u);
  EXPECT_EQ(
      reg.CounterFamilyTotal("kelpie_engine_diverged_post_trainings_total"),
      0u);
  // The registry total is the engine's own ledger, series-by-series.
  EXPECT_EQ(reg.CounterFamilyTotal("kelpie_engine_post_trainings_total"),
            kelpie.engine().post_training_count());
}

TEST_F(RelevanceEngineTest, SufficientExtractionPostTrainsOneBaselinePerEntity) {
  ASSERT_TRUE(found_);
  metrics::ScopedRegistry scoped;
  KelpieOptions options;
  options.engine.num_threads = 1;
  options.engine.conversion_set_size = 4;
  Kelpie kelpie(*model_, *dataset_, options);
  metrics::Registry& reg = metrics::Registry::Global();
  auto count = [&reg](const char* kind) {
    return reg.GetCounter("kelpie_engine_post_trainings_total",
                          {{"kind", kind}})
        .Value();
  };

  std::vector<EntityId> set;
  const Explanation x =
      kelpie.ExplainSufficient(prediction_, PredictionTarget::kTail, &set);
  ASSERT_FALSE(set.empty());
  ASSERT_GT(x.visited_candidates, 0u);
  EXPECT_EQ(count("homologous"), set.size());
  // Entities whose baseline already ranks 1 short-circuit before the
  // addition mimic, so each candidate post-trains at most |C| mimics.
  EXPECT_LE(count("sufficient"), set.size() * x.visited_candidates);
  EXPECT_EQ(x.post_trainings, count("homologous") + count("sufficient"));

  std::vector<EntityId> again;
  const Explanation y =
      kelpie.ExplainSufficient(prediction_, PredictionTarget::kTail, &again);
  EXPECT_EQ(again, set);
  EXPECT_EQ(y.post_trainings, x.post_trainings);
  EXPECT_EQ(count("homologous"), 2 * set.size());
  EXPECT_EQ(count("necessary"), 0u);
  EXPECT_EQ(reg.CounterFamilyTotal("kelpie_engine_post_trainings_total"),
            kelpie.engine().post_training_count());
}

// The easiest silent-wrongness bug in the quantized-shortlist design: an
// entity row mutates (post-training-style writes, baseline perturbations)
// and the next sweep is served from a stale int8 table, classifying
// candidates against embeddings that no longer exist. MutableEntityEmbedding
// bumps the Matrix version; the per-model TableCache must rebuild before
// the next sweep, keeping quantized ranks equal to exact ranks across the
// mutation.
TEST_F(RelevanceEngineTest, QuantizedTableInvalidatedByEntityRowMutation) {
  ASSERT_TRUE(found_);
  const RankingOptions on{true};
  const RankingOptions off{false};
  const int before_on = FilteredTailRank(*model_, *dataset_, prediction_, on);
  const int before_off =
      FilteredTailRank(*model_, *dataset_, prediction_, off);
  EXPECT_EQ(before_on, before_off);
  // The quantized table is now cached for the current embeddings.
  std::shared_ptr<const quant::QuantizedTable> cached =
      model_->QuantizedEntityTable();
  ASSERT_NE(cached, nullptr);

  // Pick a competitor the filter keeps, and overwrite its row with the
  // target's: an engineered exact tie that must worsen the rank by one —
  // but only if the sweep sees the *new* row.
  const auto& filtered =
      dataset_->KnownTails(prediction_.head, prediction_.relation);
  EntityId competitor = kNoEntity;
  for (size_t e = 0; e < model_->num_entities(); ++e) {
    EntityId id = static_cast<EntityId>(e);
    if (id != prediction_.tail && filtered.count(id) == 0) {
      competitor = id;
      break;
    }
  }
  ASSERT_NE(competitor, kNoEntity);
  std::span<const float> target_row = model_->EntityEmbedding(prediction_.tail);
  std::vector<float> copy(target_row.begin(), target_row.end());
  std::copy(copy.begin(), copy.end(),
            model_->MutableEntityEmbedding(competitor).begin());

  const int after_off = FilteredTailRank(*model_, *dataset_, prediction_, off);
  const int after_on = FilteredTailRank(*model_, *dataset_, prediction_, on);
  EXPECT_EQ(after_off, before_off + 1);  // the tie counts against the target
  EXPECT_EQ(after_on, after_off) << "quantized sweep served a stale table";
  // The cache really rebuilt rather than the ranks agreeing by luck.
  std::shared_ptr<const quant::QuantizedTable> rebuilt =
      model_->QuantizedEntityTable();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), cached.get());
  EXPECT_GT(rebuilt->source_version, cached->source_version);
}

TEST(TransferFactTest, ReplacesSourceEntityOnEitherSide) {
  Triple head_side(3, 1, 7);
  EXPECT_EQ(TransferFact(head_side, 3, 9), Triple(9, 1, 7));
  Triple tail_side(7, 1, 3);
  EXPECT_EQ(TransferFact(tail_side, 3, 9), Triple(7, 1, 9));
  Triple both(3, 1, 3);
  EXPECT_EQ(TransferFact(both, 3, 9), Triple(9, 1, 9));
}

}  // namespace
}  // namespace kelpie
