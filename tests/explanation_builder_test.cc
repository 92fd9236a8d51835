#include "core/explanation_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "eval/ranking.h"
#include "math/rng.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

/// Brute-force reference for TopCombinationsByPreliminary: every
/// k-combination of {0..n-1}, its mean summed in index order, sorted by mean
/// descending and then lexicographically, truncated to `limit`.
std::vector<ScoredCombo> ReferenceTopCombinations(
    size_t n, size_t k, const std::vector<double>& individual,
    size_t limit) {
  std::vector<ScoredCombo> all;
  if (k == 0) return all;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) != k) continue;
    ScoredCombo combo{0.0, {}};
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) {
        combo.indices.push_back(i);
        sum += individual[i];
      }
    }
    combo.preliminary = sum / static_cast<double>(k);
    all.push_back(std::move(combo));
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredCombo& a, const ScoredCombo& b) {
              if (a.preliminary != b.preliminary) {
                return a.preliminary > b.preliminary;
              }
              return a.indices < b.indices;
            });
  if (all.size() > limit) all.resize(limit);
  return all;
}

TEST(TopCombinationsTest, MatchesBruteForceReference) {
  // Few distinct values, so many combinations tie on their mean. The
  // non-dyadic values make a running sum round differently from a fresh
  // one, and -inf is the score of a divergent single-fact candidate.
  const double pool[] = {0.1, 1.0 / 3.0, 0.7, 0.0, 2.0, -1.5,
                         -std::numeric_limits<double>::infinity()};
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    for (size_t n = 0; n <= 8; ++n) {
      std::vector<double> individual(n);
      for (double& v : individual) v = pool[rng.UniformUint64(7)];
      for (size_t k = 0; k <= n + 1; ++k) {
        const size_t all = std::numeric_limits<size_t>::max();
        for (size_t limit : {size_t{0}, size_t{1}, size_t{3}, all}) {
          const std::vector<ScoredCombo> got =
              TopCombinationsByPreliminary(n, k, individual, limit);
          const std::vector<ScoredCombo> want =
              ReferenceTopCombinations(n, k, individual, limit);
          ASSERT_EQ(got.size(), want.size())
              << "n=" << n << " k=" << k << " limit=" << limit;
          for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].indices, want[i].indices)
                << "n=" << n << " k=" << k << " limit=" << limit
                << " rank=" << i;
            ASSERT_EQ(got[i].preliminary, want[i].preliminary);
          }
        }
      }
    }
  }
}

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_);
    for (const Triple& t : dataset_->test()) {
      if (FilteredTailRank(*model_, *dataset_, t) == 1) {
        prediction_ = t;
        found_ = true;
        break;
      }
    }
    prefilter_ = std::make_unique<PreFilter>(*dataset_, PreFilterOptions{});
    engine_ = std::make_unique<RelevanceEngine>(*model_, *dataset_,
                                                RelevanceEngineOptions{});
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
  std::unique_ptr<PreFilter> prefilter_;
  std::unique_ptr<RelevanceEngine> engine_;
  Triple prediction_;
  bool found_ = false;
};

TEST_F(BuilderTest, NecessaryExplanationIsNonEmptyAndFromSourceFacts) {
  ASSERT_TRUE(found_);
  ExplanationBuilder builder(*engine_, *prefilter_,
                             ExplanationBuilderOptions{});
  Explanation x = builder.BuildNecessary(prediction_,
                                         PredictionTarget::kTail);
  EXPECT_FALSE(x.empty());
  EXPECT_EQ(x.kind, ExplanationKind::kNecessary);
  for (const Triple& f : x.facts) {
    EXPECT_TRUE(f.Mentions(prediction_.head));
    EXPECT_TRUE(dataset_->train_graph().Contains(f));
  }
  EXPECT_GT(x.post_trainings, 0u);
  EXPECT_GT(x.visited_candidates, 0u);
  EXPECT_GE(x.seconds, 0.0);
}

TEST_F(BuilderTest, ExplanationSizeRespectsLimit) {
  ASSERT_TRUE(found_);
  ExplanationBuilderOptions options;
  options.max_explanation_length = 2;
  options.necessary_threshold = 1e9;  // unreachable: force full search
  options.max_visits_per_size = 10;
  ExplanationBuilder builder(*engine_, *prefilter_, options);
  Explanation x = builder.BuildNecessary(prediction_,
                                         PredictionTarget::kTail);
  EXPECT_LE(x.size(), 2u);
  EXPECT_FALSE(x.accepted);  // threshold unreachable -> best effort
}

TEST_F(BuilderTest, K1ModeReturnsSingleFact) {
  ASSERT_TRUE(found_);
  ExplanationBuilderOptions options;
  options.k1_only = true;
  ExplanationBuilder builder(*engine_, *prefilter_, options);
  Explanation x = builder.BuildNecessary(prediction_,
                                         PredictionTarget::kTail);
  EXPECT_EQ(x.size(), 1u);
}

TEST_F(BuilderTest, LowThresholdAcceptsQuickly) {
  ASSERT_TRUE(found_);
  ExplanationBuilderOptions options;
  options.necessary_threshold = -1e9;  // anything passes
  ExplanationBuilder builder(*engine_, *prefilter_, options);
  Explanation x = builder.BuildNecessary(prediction_,
                                         PredictionTarget::kTail);
  EXPECT_TRUE(x.accepted);
  EXPECT_EQ(x.size(), 1u);  // accepted during the S_1 sweep
}

TEST_F(BuilderTest, ObserverSeesEveryVisitedCandidate) {
  ASSERT_TRUE(found_);
  ExplanationBuilderOptions options;
  options.max_explanation_length = 2;
  options.necessary_threshold = 1e9;
  options.max_visits_per_size = 5;
  ExplanationBuilder builder(*engine_, *prefilter_, options);
  size_t observed = 0;
  Explanation x = builder.BuildNecessary(
      prediction_, PredictionTarget::kTail,
      [&](size_t size, double preliminary, double true_rel) {
        ++observed;
        EXPECT_GE(size, 1u);
        EXPECT_LE(size, 2u);
        (void)preliminary;
        (void)true_rel;
      });
  EXPECT_EQ(observed, x.visited_candidates);
}

TEST_F(BuilderTest, SufficientExplanationConvertsRanks) {
  ASSERT_TRUE(found_);
  Rng rng(engine_->options().seed);
  std::vector<EntityId> conversion_set =
      engine_->SampleConversionSet(prediction_, PredictionTarget::kTail, rng);
  ASSERT_FALSE(conversion_set.empty());
  ExplanationBuilderOptions options;
  options.sufficient_threshold = 0.5;
  ExplanationBuilder builder(*engine_, *prefilter_, options);
  Explanation x = builder.BuildSufficient(prediction_,
                                          PredictionTarget::kTail,
                                          conversion_set);
  EXPECT_EQ(x.kind, ExplanationKind::kSufficient);
  EXPECT_FALSE(x.empty());
  // On the toy compositional dataset a person's facts should convert other
  // entities at least partially.
  EXPECT_GT(x.relevance, 0.0);
}

TEST_F(BuilderTest, EmptyFactSetGivesEmptyExplanation) {
  // An entity with no training facts other than the prediction.
  Dictionary entities, relations;
  EntityId a = entities.GetOrAdd("a");
  EntityId b = entities.GetOrAdd("b");
  entities.GetOrAdd("c");
  RelationId r = relations.GetOrAdd("r");
  Dataset tiny("tiny", std::move(entities), std::move(relations),
               {Triple(a, r, b)}, {}, {});
  auto model = testing_util::TrainToyModel(ModelKind::kComplEx, tiny);
  PreFilter prefilter(tiny, {});
  RelevanceEngine engine(*model, tiny, {});
  ExplanationBuilder builder(engine, prefilter, {});
  // Explaining a prediction whose head (entity c = 2) has no facts.
  Explanation x =
      builder.BuildNecessary(Triple(2, r, b), PredictionTarget::kTail);
  EXPECT_TRUE(x.empty());
  EXPECT_FALSE(x.accepted);
}

TEST_F(BuilderTest, ToStringRendersFactsAndRelevance) {
  ASSERT_TRUE(found_);
  ExplanationBuilder builder(*engine_, *prefilter_,
                             ExplanationBuilderOptions{});
  Explanation x = builder.BuildNecessary(prediction_,
                                         PredictionTarget::kTail);
  std::string rendered = x.ToString(*dataset_);
  EXPECT_NE(rendered.find("necessary{"), std::string::npos);
  EXPECT_NE(rendered.find("relevance="), std::string::npos);
}

}  // namespace
}  // namespace kelpie
