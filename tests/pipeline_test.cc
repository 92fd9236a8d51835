#include "xp/pipeline.h"

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "baselines/data_poisoning.h"
#include "eval/ranking.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_);
  }
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
};

TEST_F(PipelineTest, SampledPredictionsAreCorrectAndFromTest) {
  Rng rng(3);
  std::vector<Triple> sample =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng);
  EXPECT_LE(sample.size(), 3u);
  for (const Triple& p : sample) {
    EXPECT_EQ(FilteredTailRank(*model_, *dataset_, p), 1);
    EXPECT_TRUE(dataset_->IsKnown(p));
    EXPECT_FALSE(dataset_->train_graph().Contains(p));
  }
}

TEST_F(PipelineTest, SampleIsDeterministicGivenSeed) {
  Rng rng1(3), rng2(3);
  std::vector<Triple> a =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng1);
  std::vector<Triple> b =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng2);
  EXPECT_EQ(a, b);
}

TEST_F(PipelineTest, ConversionEntitiesNotAlreadyPredicted) {
  Rng rng(5);
  std::vector<Triple> sample =
      SampleCorrectTailPredictions(*model_, *dataset_, 1, rng);
  ASSERT_FALSE(sample.empty());
  std::vector<EntityId> set = SampleConversionEntities(
      *model_, *dataset_, sample[0], PredictionTarget::kTail, 4, rng);
  for (EntityId c : set) {
    Triple converted = sample[0];
    converted.head = c;
    EXPECT_GT(FilteredTailRank(*model_, *dataset_, converted), 1);
  }
}

// The engine's sampler and the pipeline's are one rejection loop: the same
// seed draws the same conversion set through either, in both prediction
// directions, whatever the engine's ranking options.
TEST_F(PipelineTest, EngineAndPipelineSampleTheSameConversionSet) {
  Rng rng(5);
  std::vector<Triple> sample =
      SampleCorrectTailPredictions(*model_, *dataset_, 1, rng);
  ASSERT_FALSE(sample.empty());
  RelevanceEngineOptions options;
  options.conversion_set_size = 4;
  options.quantized_shortlist = true;
  RelevanceEngine engine(*model_, *dataset_, options);
  for (PredictionTarget target :
       {PredictionTarget::kTail, PredictionTarget::kHead}) {
    Rng engine_rng(11), pipeline_rng(11);
    const std::vector<EntityId> from_engine =
        engine.SampleConversionSet(sample[0], target, engine_rng);
    EXPECT_FALSE(from_engine.empty());
    EXPECT_EQ(from_engine,
              SampleConversionEntities(*model_, *dataset_, sample[0], target,
                                       4, pipeline_rng));
    // Both consumed the same draws.
    EXPECT_EQ(engine_rng.NextUint64(), pipeline_rng.NextUint64());
  }
}

TEST_F(PipelineTest, RetrainAndMeasureRemovalHurtsPredictions) {
  Rng rng(7);
  std::vector<Triple> sample =
      SampleCorrectTailPredictions(*model_, *dataset_, 2, rng);
  ASSERT_FALSE(sample.empty());
  // Remove the entire fact set of each prediction head: retrained models
  // should lose those predictions almost surely.
  std::vector<Triple> removed;
  for (const Triple& p : sample) {
    for (const Triple& f : dataset_->train_graph().FactsOf(p.head)) {
      removed.push_back(f);
    }
  }
  LpMetrics after = RetrainAndMeasureTails(ModelKind::kComplEx, *dataset_,
                                           sample, removed, {}, 99);
  EXPECT_LT(after.mrr, 1.0);
}

TEST_F(PipelineTest, RetrainWithNoChangesKeepsMostPredictions) {
  Rng rng(9);
  std::vector<Triple> sample =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng);
  ASSERT_FALSE(sample.empty());
  LpMetrics after = RetrainAndMeasureTails(ModelKind::kComplEx, *dataset_,
                                           sample, {}, {}, 101);
  // A retrained model on the unchanged toy dataset should keep a clear
  // majority of the easy compositional predictions.
  EXPECT_GT(after.mrr, 0.4);
}

TEST_F(PipelineTest, NecessaryEndToEndWithDpBaseline) {
  Rng rng(11);
  std::vector<Triple> sample =
      SampleCorrectTailPredictions(*model_, *dataset_, 2, rng);
  ASSERT_FALSE(sample.empty());
  DataPoisoningExplainer dp(*model_, *dataset_);
  Result<EndToEndResult> result = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, sample,
      ExplanationKind::kNecessary, /*conversion_set_size=*/0,
      /*conversion_seed=*/0, 7);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->explanations.size(), sample.size());
  // Sampled predictions are correct, so the original model ranks them all
  // first.
  EXPECT_EQ(result->before.hits_at_1, 1.0);
  EXPECT_EQ(result->before.mrr, 1.0);
  EXPECT_LE(result->delta_h1(), 0.0);   // can only get worse or stay
  EXPECT_LE(result->delta_mrr(), 0.0);
}

// The journal only records: the same run with and without one extracts the
// same explanations against the same conversion sets and measures the same
// metrics, in both scenarios and both prediction directions.
TEST_F(PipelineTest, JournalDoesNotChangeResults) {
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("kelpie_pipeline_test_" + std::to_string(::getpid()) + ".jnl"))
          .string();
  // Any facts will do: the loop does not require correct predictions.
  const std::vector<Triple> predictions(dataset_->test().begin(),
                                        dataset_->test().begin() + 2);
  DataPoisoningExplainer dp(*model_, *dataset_);
  for (ExplanationKind scenario :
       {ExplanationKind::kNecessary, ExplanationKind::kSufficient}) {
    for (PredictionTarget target :
         {PredictionTarget::kTail, PredictionTarget::kHead}) {
      SCOPED_TRACE(std::string(scenario == ExplanationKind::kNecessary
                                   ? "necessary"
                                   : "sufficient") +
                   (target == PredictionTarget::kTail ? " tail" : " head"));
      Result<EndToEndResult> plain =
          RunEndToEnd(dp, *model_, ModelKind::kComplEx, *dataset_,
                      predictions, scenario, 3, 5, 7, target);
      RunControl control;
      control.journal_path = journal;
      Result<EndToEndResult> journaled =
          RunEndToEnd(dp, *model_, ModelKind::kComplEx, *dataset_,
                      predictions, scenario, 3, 5, 7, target, control);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ASSERT_TRUE(journaled.ok()) << journaled.status().ToString();
      EXPECT_TRUE(std::filesystem::exists(journal));

      ASSERT_EQ(plain->explanations.size(), predictions.size());
      ASSERT_EQ(journaled->explanations.size(), predictions.size());
      for (size_t i = 0; i < predictions.size(); ++i) {
        const Explanation& a = plain->explanations[i];
        const Explanation& b = journaled->explanations[i];
        EXPECT_EQ(a.kind, scenario);
        EXPECT_EQ(b.kind, scenario);
        EXPECT_EQ(a.facts, b.facts) << "prediction " << i;
        EXPECT_EQ(a.relevance, b.relevance) << "prediction " << i;
        EXPECT_EQ(a.accepted, b.accepted) << "prediction " << i;
        EXPECT_EQ(a.post_trainings, b.post_trainings) << "prediction " << i;
        EXPECT_EQ(a.completeness, b.completeness) << "prediction " << i;
        EXPECT_EQ(a.seconds, 0.0) << "the loop zeroes wall-clock time";
        EXPECT_EQ(b.seconds, 0.0);
      }
      ASSERT_EQ(plain->conversion_sets.size(), predictions.size());
      EXPECT_EQ(plain->conversion_sets, journaled->conversion_sets);
      for (const std::vector<EntityId>& set : plain->conversion_sets) {
        EXPECT_EQ(set.empty(), scenario == ExplanationKind::kNecessary);
      }
      EXPECT_EQ(plain->before.hits_at_1, journaled->before.hits_at_1);
      EXPECT_EQ(plain->before.mrr, journaled->before.mrr);
      EXPECT_EQ(plain->after.hits_at_1, journaled->after.hits_at_1);
      EXPECT_EQ(plain->after.mrr, journaled->after.mrr);
    }
  }
  std::filesystem::remove(journal);
}

TEST_F(PipelineTest, ConversionPredictionsFlattenSets) {
  std::vector<Triple> predictions{Triple(0, 2, 41), Triple(1, 2, 42)};
  std::vector<std::vector<EntityId>> sets{{5, 6}, {7}};
  std::vector<Triple> converted = ConversionPredictions(predictions, sets);
  ASSERT_EQ(converted.size(), 3u);
  EXPECT_EQ(converted[0], Triple(5, 2, 41));
  EXPECT_EQ(converted[1], Triple(6, 2, 41));
  EXPECT_EQ(converted[2], Triple(7, 2, 42));
}

TEST_F(PipelineTest, TransferredFactsSubstituteSource) {
  std::vector<Triple> predictions{Triple(0, 2, 41)};
  std::vector<Explanation> explanations(1);
  explanations[0].facts = {Triple(0, 0, 8)};
  std::vector<std::vector<EntityId>> sets{{5, 6}};
  std::vector<Triple> added = TransferredFacts(predictions, explanations, sets);
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(added[0], Triple(5, 0, 8));
  EXPECT_EQ(added[1], Triple(6, 0, 8));
}

TEST_F(PipelineTest, TransferredFactsDeduplicated) {
  std::vector<Triple> predictions{Triple(0, 2, 41), Triple(0, 2, 42)};
  std::vector<Explanation> explanations(2);
  explanations[0].facts = {Triple(0, 0, 8)};
  explanations[1].facts = {Triple(0, 0, 8)};
  std::vector<std::vector<EntityId>> sets{{5}, {5}};
  std::vector<Triple> added = TransferredFacts(predictions, explanations, sets);
  EXPECT_EQ(added.size(), 1u);
}

TEST_F(PipelineTest, SubsampleShrinksOrEmptiesExplanations) {
  std::vector<Explanation> explanations(3);
  explanations[0].facts = {Triple(0, 0, 1)};
  explanations[1].facts = {Triple(0, 0, 1), Triple(0, 0, 2)};
  explanations[2].facts = {Triple(0, 0, 1), Triple(0, 0, 2), Triple(0, 0, 3),
                           Triple(0, 0, 4)};
  Rng rng(13);
  std::vector<std::vector<Triple>> sub =
      SubsampleExplanations(explanations, rng);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_TRUE(sub[0].empty());  // length-1 -> null (footnote 7)
  EXPECT_GE(sub[1].size(), 1u);
  EXPECT_LT(sub[1].size(), 2u);
  EXPECT_GE(sub[2].size(), 1u);
  EXPECT_LT(sub[2].size(), 4u);
}

TEST_F(PipelineTest, HeadPredictionSamplingUsesHeadRank) {
  Rng rng(15);
  std::vector<Triple> sample = SampleCorrectPredictions(
      *model_, *dataset_, 3, PredictionTarget::kHead, rng);
  for (const Triple& p : sample) {
    EXPECT_EQ(FilteredHeadRank(*model_, *dataset_, p), 1);
  }
}

TEST_F(PipelineTest, HeadDirectionNecessaryEndToEnd) {
  Rng rng(17);
  std::vector<Triple> sample = SampleCorrectPredictions(
      *model_, *dataset_, 2, PredictionTarget::kHead, rng);
  if (sample.empty()) GTEST_SKIP() << "no correct head predictions";
  DataPoisoningExplainer dp(*model_, *dataset_);
  Result<EndToEndResult> result = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, sample,
      ExplanationKind::kNecessary, /*conversion_set_size=*/0,
      /*conversion_seed=*/0, 7, PredictionTarget::kHead);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->explanations.size(), sample.size());
  // Facts come from the tail entity (the head-prediction source).
  for (size_t i = 0; i < sample.size(); ++i) {
    for (const Triple& f : result->explanations[i].facts) {
      EXPECT_TRUE(f.Mentions(sample[i].tail));
    }
  }
  EXPECT_LE(result->delta_h1(), 0.0);
}

TEST_F(PipelineTest, HeadDirectionConversionReplacesTail) {
  std::vector<Triple> predictions{Triple(0, 2, 41)};
  std::vector<std::vector<EntityId>> sets{{5, 6}};
  std::vector<Triple> converted = ConversionPredictions(
      predictions, sets, PredictionTarget::kHead);
  ASSERT_EQ(converted.size(), 2u);
  EXPECT_EQ(converted[0], Triple(0, 2, 5));
  EXPECT_EQ(converted[1], Triple(0, 2, 6));
}

TEST_F(PipelineTest, EffectivenessLossMatchesPaperExamples) {
  // Paper's necessary example: full -0.90, sub -0.30 -> -66.7%.
  EXPECT_NEAR(EffectivenessLoss(-0.90, -0.30), -0.667, 1e-3);
  // Paper's sufficient example: full +0.80, sub +0.20 -> -75%.
  EXPECT_NEAR(EffectivenessLoss(0.80, 0.20), -0.75, 1e-12);
  EXPECT_DOUBLE_EQ(EffectivenessLoss(0.0, 0.5), 0.0);
}

}  // namespace
}  // namespace kelpie
