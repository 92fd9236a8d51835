// Proves the chunked-visiting semantics of parallel extraction: for any
// num_threads, ExplainNecessary / ExplainSufficient return byte-identical
// Explanations (facts, relevance, accepted, visited_candidates) and emit
// the same observer stream as the sequential run, because every
// post-training is seeded from (engine seed, entity, fact set) alone and
// the stopping policy is replayed sequentially over each chunk.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/kelpie.h"
#include "eval/ranking.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

using ObserverLog = std::vector<std::tuple<size_t, double, double>>;

class ParallelDeterminismTest : public ::testing::Test {
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
  }

  /// Options that force a deep search (unreachable threshold) so the
  /// chunk-replay path, the ρ_i draws, and multiple size classes are all
  /// exercised — the hardest case for equivalence.
  KelpieOptions DeepSearchOptions(size_t num_threads) const {
    KelpieOptions options;
    options.engine.num_threads = num_threads;
    options.engine.conversion_set_size = 4;
    options.builder.necessary_threshold = 1e9;
    options.builder.sufficient_threshold = 1e9;
    options.builder.max_visits_per_size = 15;
    options.builder.max_explanation_length = 3;
    return options;
  }

  static void ExpectIdentical(const Explanation& a, const Explanation& b) {
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.facts, b.facts);
    EXPECT_EQ(a.relevance, b.relevance);  // exact, not approximate
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.visited_candidates, b.visited_candidates);
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
  Triple prediction_;
  bool found_ = false;
};

TEST_F(ParallelDeterminismTest, NecessaryIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(found_);
  Kelpie sequential(*model_, *dataset_, DeepSearchOptions(1));
  ObserverLog log1;
  Explanation a = sequential.ExplainNecessary(
      prediction_, PredictionTarget::kTail,
      [&](size_t size, double pre, double cur) {
        log1.emplace_back(size, pre, cur);
      });
  for (size_t threads : {2u, 4u}) {
    Kelpie parallel(*model_, *dataset_, DeepSearchOptions(threads));
    ObserverLog logn;
    Explanation b = parallel.ExplainNecessary(
        prediction_, PredictionTarget::kTail,
        [&](size_t size, double pre, double cur) {
          logn.emplace_back(size, pre, cur);
        });
    ExpectIdentical(a, b);
    EXPECT_EQ(log1, logn) << "observer stream diverged at " << threads
                          << " threads";
  }
}

TEST_F(ParallelDeterminismTest, SufficientIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(found_);
  Kelpie sequential(*model_, *dataset_, DeepSearchOptions(1));
  Rng rng(sequential.engine().options().seed);
  std::vector<EntityId> conversion_set =
      sequential.engine().SampleConversionSet(prediction_,
                                              PredictionTarget::kTail, rng);
  if (conversion_set.empty()) {
    GTEST_SKIP() << "no convertible entities for this prediction";
  }
  Explanation a = sequential.ExplainSufficientWithSet(
      prediction_, PredictionTarget::kTail, conversion_set);
  Kelpie parallel(*model_, *dataset_, DeepSearchOptions(4));
  Explanation b = parallel.ExplainSufficientWithSet(
      prediction_, PredictionTarget::kTail, conversion_set);
  ExpectIdentical(a, b);
}

TEST_F(ParallelDeterminismTest, AcceptingSearchIdenticalToo) {
  ASSERT_TRUE(found_);
  // Default thresholds: the search usually accepts early — the replay must
  // exit at the exact same candidate.
  KelpieOptions seq;
  seq.engine.conversion_set_size = 4;
  KelpieOptions par = seq;
  par.engine.num_threads = 4;
  Kelpie sequential(*model_, *dataset_, seq);
  Kelpie parallel(*model_, *dataset_, par);
  ExpectIdentical(sequential.ExplainNecessary(prediction_),
                  parallel.ExplainNecessary(prediction_));
}

TEST_F(ParallelDeterminismTest, HeadDirectionIdenticalToo) {
  ASSERT_TRUE(found_);
  Kelpie sequential(*model_, *dataset_, DeepSearchOptions(1));
  Kelpie parallel(*model_, *dataset_, DeepSearchOptions(4));
  ExpectIdentical(
      sequential.ExplainNecessary(prediction_, PredictionTarget::kHead),
      parallel.ExplainNecessary(prediction_, PredictionTarget::kHead));
}

TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAreStable) {
  ASSERT_TRUE(found_);
  // Two independent parallel instances: no hidden schedule dependence.
  Kelpie first(*model_, *dataset_, DeepSearchOptions(4));
  Kelpie second(*model_, *dataset_, DeepSearchOptions(4));
  ExpectIdentical(first.ExplainNecessary(prediction_),
                  second.ExplainNecessary(prediction_));
}

}  // namespace
}  // namespace kelpie
