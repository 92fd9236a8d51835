// Full-stack integration: synthetic benchmark dataset -> training ->
// explanation extraction with Kelpie and both baselines -> end-to-end
// retraining verification. This is a miniature of the paper's Section 5.3
// methodology and the most important behavioural test in the suite.
#include <algorithm>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/criage.h"
#include "baselines/data_poisoning.h"
#include "common/logging.h"
#include "common/trace.h"
#include "core/kelpie.h"
#include "datagen/datasets.h"
#include "eval/evaluator.h"
#include "xp/pipeline.h"

namespace kelpie {
namespace {

/// An unjournaled necessary tail run; without a journal, cancel token or
/// deadline nothing can fail it.
EndToEndResult RunNecessary(Explainer& explainer,
                            const LinkPredictionModel& model,
                            const Dataset& dataset,
                            const std::vector<Triple>& predictions,
                            uint64_t retrain_seed) {
  Result<EndToEndResult> run = RunEndToEnd(
      explainer, model, ModelKind::kComplEx, dataset, predictions,
      ExplanationKind::kNecessary, /*conversion_set_size=*/0,
      /*conversion_seed=*/0, retrain_seed);
  KELPIE_CHECK(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Shared across tests: generation + training are the expensive steps.
    dataset_ = new Dataset(
        MakeBenchmark(BenchmarkDataset::kFb15k237, /*scale=*/0.35, 7));
    TrainConfig config = DefaultConfig(ModelKind::kComplEx, *dataset_);
    config.epochs = 15;
    auto model = CreateModel(ModelKind::kComplEx, *dataset_, config);
    Rng rng(21);
    model->Train(*dataset_, rng);
    model_ = model.release();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static LinkPredictionModel* model_;
};

Dataset* IntegrationTest::dataset_ = nullptr;
LinkPredictionModel* IntegrationTest::model_ = nullptr;

TEST_F(IntegrationTest, ModelLearnsSomething) {
  EvalOptions options;
  options.include_heads = false;
  EvalResult result = EvaluateTest(*model_, *dataset_, options);
  // Far better than random (random MRR ~ 1e-2 at this entity count).
  EXPECT_GT(result.Mrr(), 0.15);
}

TEST_F(IntegrationTest, KelpieNecessaryBeatsRemovingNothing) {
  Rng rng(31);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(*model_, *dataset_, 4, rng);
  ASSERT_GE(predictions.size(), 2u);

  KelpieOptions options;
  options.engine.conversion_set_size = 4;
  options.builder.max_visits_per_size = 15;
  KelpieExplainer kelpie(*model_, *dataset_, options);
  EndToEndResult kelpie_run =
      RunNecessary(kelpie, *model_, *dataset_, predictions, 77);

  LpMetrics unchanged = RetrainAndMeasureTails(
      ModelKind::kComplEx, *dataset_, predictions, {}, {}, 77);

  // Removing the Kelpie explanations must hurt the predictions more than
  // retraining alone.
  EXPECT_LT(kelpie_run.after.mrr, unchanged.mrr + 1e-9);
  for (const Explanation& x : kelpie_run.explanations) {
    EXPECT_FALSE(x.empty());
    EXPECT_LE(x.size(), 4u);
  }
}

TEST_F(IntegrationTest, SufficientExplanationsConvertEntities) {
  Rng rng(33);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng);
  ASSERT_GE(predictions.size(), 1u);

  KelpieOptions options;
  options.engine.conversion_set_size = 3;
  options.builder.max_visits_per_size = 10;
  KelpieExplainer kelpie(*model_, *dataset_, options);
  Result<EndToEndResult> run = RunEndToEnd(
      kelpie, *model_, ModelKind::kComplEx, *dataset_, predictions,
      ExplanationKind::kSufficient, /*conversion_set_size=*/3,
      /*conversion_seed=*/33, 79);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Before: conversion entities do not predict the target (H@1 == 0).
  EXPECT_DOUBLE_EQ(run->before.hits_at_1, 0.0);
  // After adding the explanation facts and retraining, some conversions
  // should succeed.
  EXPECT_GT(run->after.mrr, run->before.mrr);
}

TEST_F(IntegrationTest, BaselinesRunEndToEnd) {
  Rng rng(35);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng);
  ASSERT_GE(predictions.size(), 1u);

  DataPoisoningExplainer dp(*model_, *dataset_);
  EndToEndResult dp_run =
      RunNecessary(dp, *model_, *dataset_, predictions, 81);
  EXPECT_EQ(dp_run.explanations.size(), predictions.size());
  for (const Explanation& x : dp_run.explanations) {
    EXPECT_LE(x.size(), 1u);
  }

  CriageExplainer criage(*model_, *dataset_);
  EndToEndResult criage_run =
      RunNecessary(criage, *model_, *dataset_, predictions, 83);
  EXPECT_EQ(criage_run.explanations.size(), predictions.size());
}

TEST_F(IntegrationTest, KelpieExplanationsBeatRandomRemovalOfSameSize) {
  // The core validity claim: the facts Kelpie selects are *the* enablers,
  // not just any facts. Removing the same number of random facts of the
  // same source entities must hurt the predictions strictly less.
  Rng rng(41);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(*model_, *dataset_, 6, rng);
  ASSERT_GE(predictions.size(), 3u);

  KelpieOptions options;
  options.builder.max_visits_per_size = 15;
  KelpieExplainer kelpie(*model_, *dataset_, options);
  EndToEndResult kelpie_run =
      RunNecessary(kelpie, *model_, *dataset_, predictions, 91);

  // Random control: same per-prediction removal budget, drawn uniformly
  // from the same entity's facts.
  std::vector<Triple> random_removed;
  Rng control_rng(43);
  for (size_t i = 0; i < predictions.size(); ++i) {
    std::vector<Triple> facts =
        dataset_->train_graph().FactsOf(predictions[i].head);
    facts.erase(std::remove(facts.begin(), facts.end(), predictions[i]),
                facts.end());
    control_rng.Shuffle(facts);
    size_t budget =
        std::min(kelpie_run.explanations[i].size(), facts.size());
    random_removed.insert(random_removed.end(), facts.begin(),
                          facts.begin() + budget);
  }
  LpMetrics random_metrics = RetrainAndMeasureTails(
      ModelKind::kComplEx, *dataset_, predictions, random_removed, {}, 91);

  // Kelpie's removals must be at least as damaging as random ones (in MRR,
  // averaged over the sample; the margin absorbs small-sample retraining
  // noise — with |P| = 6 a single flipped prediction moves MRR by ~0.17).
  EXPECT_LE(kelpie_run.after.mrr, random_metrics.mrr + 0.15)
      << "kelpie " << kelpie_run.after.mrr << " vs random "
      << random_metrics.mrr;
}

TEST_F(IntegrationTest, MinimalitySubsamplingWeakensExplanations) {
  Rng rng(37);
  std::vector<Triple> predictions =
      SampleCorrectTailPredictions(*model_, *dataset_, 3, rng);
  ASSERT_GE(predictions.size(), 1u);

  KelpieOptions options;
  options.builder.max_visits_per_size = 10;
  KelpieExplainer kelpie(*model_, *dataset_, options);
  EndToEndResult full_run =
      RunNecessary(kelpie, *model_, *dataset_, predictions, 85);

  std::vector<std::vector<Triple>> sub =
      SubsampleExplanations(full_run.explanations, rng);
  std::vector<Triple> sub_removed;
  for (const auto& facts : sub) {
    sub_removed.insert(sub_removed.end(), facts.begin(), facts.end());
  }
  LpMetrics sub_metrics = RetrainAndMeasureTails(
      ModelKind::kComplEx, *dataset_, predictions, sub_removed, {}, 85);
  // Sub-sampled explanations remove fewer facts, so the damage should not
  // exceed the full explanations' damage (equal is possible).
  EXPECT_GE(sub_metrics.mrr, full_run.after.mrr - 0.35);
}

// Runs last (declaration order): by now the process registry has absorbed
// training, extraction, evaluation and retraining work from every test
// above. Writes the combined observability snapshot next to the binary; CI
// uploads it as the `integration-metrics` artifact, giving each main-branch
// build a browsable record of the workload's counters and spans.
TEST_F(IntegrationTest, WritesObservabilitySnapshotArtifact) {
  trace::Collector::Global().Enable();
  {
    KelpieOptions options;
    options.builder.max_visits_per_size = 10;
    KelpieExplainer kelpie(*model_, *dataset_, options);
    Rng rng(45);
    std::vector<Triple> predictions =
        SampleCorrectTailPredictions(*model_, *dataset_, 1, rng);
    ASSERT_GE(predictions.size(), 1u);
    kelpie.ExplainNecessary(predictions[0], PredictionTarget::kTail);
  }
  trace::Collector::Global().Disable();

  const std::string json = trace::ObservabilitySnapshotJson();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("kelpie_engine_post_trainings_total"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kelpie.explain_necessary\""),
            std::string::npos);

  std::ofstream out("integration_metrics.json",
                    std::ios::binary | std::ios::trunc);
  out << json << "\n";
  out.close();
  ASSERT_TRUE(out.good()) << "failed to write integration_metrics.json";
}

}  // namespace
}  // namespace kelpie
