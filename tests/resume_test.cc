// End-to-end resume semantics: an interrupted journaled run, resumed,
// produces byte-identical results to an uninterrupted one.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/data_poisoning.h"
#include "common/failpoint.h"
#include "tests/test_util.h"
#include "xp/pipeline.h"

namespace kelpie {
namespace {

void ExpectSameExplanations(const std::vector<Explanation>& a,
                            const std::vector<Explanation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].facts, b[i].facts) << "explanation " << i;
    EXPECT_EQ(a[i].relevance, b[i].relevance) << "explanation " << i;
    EXPECT_EQ(a[i].accepted, b[i].accepted) << "explanation " << i;
    EXPECT_EQ(a[i].post_trainings, b[i].post_trainings) << "explanation " << i;
    EXPECT_EQ(a[i].visited_candidates, b[i].visited_candidates)
        << "explanation " << i;
    EXPECT_EQ(a[i].seconds, 0.0) << "journaled runs zero wall-clock";
    EXPECT_EQ(b[i].seconds, 0.0);
  }
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kelpie_resume_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_);
    Rng rng(3);
    predictions_ =
        SampleCorrectTailPredictions(*model_, *dataset_, 3, rng);
    ASSERT_GE(predictions_.size(), 2u);
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Journal(const std::string& name) {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
  std::vector<Triple> predictions_;
};

TEST_F(ResumeTest, NecessaryInterruptedThenResumedIsByteIdentical) {
  DataPoisoningExplainer dp(*model_, *dataset_);

  // Reference: uninterrupted journaled run.
  Result<EndToEndResult> full = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("full.jnl")});
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Interrupted run: killed right after the first prediction is journaled.
  failpoint::Arm("pipeline.interrupt", /*match=*/0, /*times=*/1);
  Result<EndToEndResult> interrupted = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("kill.jnl")});
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kAborted);
  failpoint::DisarmAll();

  // Resume replays prediction 0 from disk and finishes the rest fresh.
  Result<EndToEndResult> resumed = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("kill.jnl"), .resume = true});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectSameExplanations(full->explanations, resumed->explanations);
  EXPECT_EQ(full->after.hits_at_1, resumed->after.hits_at_1);
  EXPECT_EQ(full->after.mrr, resumed->after.mrr);
}

TEST_F(ResumeTest, SufficientInterruptedThenResumedIsByteIdentical) {
  DataPoisoningExplainer dp(*model_, *dataset_);
  const size_t conversion_set_size = 3;
  const uint64_t conversion_seed = 5;

  Result<EndToEndResult> full = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kSufficient, conversion_set_size, conversion_seed, 7,
      PredictionTarget::kTail, {.journal_path = Journal("full.jnl")});
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  failpoint::Arm("pipeline.interrupt", /*match=*/0, /*times=*/1);
  Result<EndToEndResult> interrupted = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kSufficient, conversion_set_size, conversion_seed, 7,
      PredictionTarget::kTail, {.journal_path = Journal("kill.jnl")});
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kAborted);
  failpoint::DisarmAll();

  Result<EndToEndResult> resumed = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kSufficient, conversion_set_size, conversion_seed, 7,
      PredictionTarget::kTail,
      {.journal_path = Journal("kill.jnl"), .resume = true});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectSameExplanations(full->explanations, resumed->explanations);
  EXPECT_EQ(full->conversion_sets, resumed->conversion_sets);
  EXPECT_EQ(full->before.hits_at_1, resumed->before.hits_at_1);
  EXPECT_EQ(full->before.mrr, resumed->before.mrr);
  EXPECT_EQ(full->after.hits_at_1, resumed->after.hits_at_1);
  EXPECT_EQ(full->after.mrr, resumed->after.mrr);
}

// Format v3 ends every finished run with a summary frame recomputed from
// the *complete* explanation set, so an interrupted-then-resumed run's
// journal — summary included — is byte-identical to an uninterrupted one:
// resuming never double-counts work that was already journaled.
TEST_F(ResumeTest, ResumedJournalSummaryMatchesUninterruptedByteForByte) {
  DataPoisoningExplainer dp(*model_, *dataset_);

  Result<EndToEndResult> full = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("full.jnl")});
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  failpoint::Arm("pipeline.interrupt", /*match=*/0, /*times=*/1);
  Result<EndToEndResult> interrupted = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("kill.jnl")});
  ASSERT_FALSE(interrupted.ok());
  failpoint::DisarmAll();

  Result<EndToEndResult> resumed = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("kill.jnl"), .resume = true});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
  };
  const std::string full_bytes = read_all(Journal("full.jnl"));
  const std::string resumed_bytes = read_all(Journal("kill.jnl"));
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_EQ(full_bytes, resumed_bytes);

  // Re-resuming the finished journal surfaces the summary and replays all
  // records; the replayed run then re-appends an identical summary.
  Result<EndToEndResult> replay = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("kill.jnl"), .resume = true});
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(read_all(Journal("kill.jnl")), full_bytes);
}

TEST_F(ResumeTest, ResumeWithDifferentPredictionsRefuses) {
  DataPoisoningExplainer dp(*model_, *dataset_);
  Result<EndToEndResult> first = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl")});
  ASSERT_TRUE(first.ok());

  // Any change to the configuration (here: a different prediction sample)
  // changes the run id and resume must refuse.
  std::vector<Triple> other(predictions_.begin(), predictions_.end() - 1);
  Result<EndToEndResult> mismatch = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, other,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl"), .resume = true});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
}

// The explainer is part of the run configuration: a journal of one
// framework's explanations never replays as another's.
TEST_F(ResumeTest, ResumeWithDifferentExplainerRefuses) {
  DataPoisoningExplainer dp(*model_, *dataset_);
  Result<EndToEndResult> first = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl")});
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  KelpieExplainer kelpie(*model_, *dataset_, KelpieOptions{});
  KelpieExplainer k1(*model_, *dataset_, KelpieOptions{}, /*k1_only=*/true);
  for (Explainer* other : {static_cast<Explainer*>(&kelpie),
                           static_cast<Explainer*>(&k1)}) {
    Result<EndToEndResult> mismatch = RunEndToEnd(
        *other, *model_, ModelKind::kComplEx, *dataset_, predictions_,
        ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
        {.journal_path = Journal("run.jnl"), .resume = true});
    ASSERT_FALSE(mismatch.ok()) << other->Name();
    EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition)
        << other->Name();
  }
}

TEST_F(ResumeTest, ResumeOfCompletedRunReplaysEverything) {
  DataPoisoningExplainer dp(*model_, *dataset_);
  Result<EndToEndResult> full = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl")});
  ASSERT_TRUE(full.ok());

  Result<EndToEndResult> replay = RunEndToEnd(
      dp, *model_, ModelKind::kComplEx, *dataset_, predictions_,
      ExplanationKind::kNecessary, 0, 0, 7, PredictionTarget::kTail,
      {.journal_path = Journal("run.jnl"), .resume = true});
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ExpectSameExplanations(full->explanations, replay->explanations);
  EXPECT_EQ(full->after.mrr, replay->after.mrr);
}

}  // namespace
}  // namespace kelpie
