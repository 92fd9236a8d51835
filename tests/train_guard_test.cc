#include "ml/train_guard.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

class TrainGuardTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

/// Hooks over a tiny synthetic "model": one parameter vector that each
/// epoch shifts by lr_scale. Fully deterministic and inspectable.
struct ToyTrainer {
  std::vector<float> state{0.0f, 0.0f};
  uint64_t counter = 0;

  double run_epoch(size_t /*epoch*/, float lr_scale) {
    state[0] += lr_scale;
    state[1] += 1.0f;
    ++counter;
    return static_cast<double>(state[0]);
  }

  GuardedTrainHooks Hooks() {
    GuardedTrainHooks hooks;
    hooks.params = {std::span<float>(state)};
    hooks.run_epoch = [this](size_t epoch, float lr_scale) {
      return run_epoch(epoch, lr_scale);
    };
    hooks.save_counters = [this] { return std::vector<uint64_t>{counter}; };
    hooks.restore_counters = [this](const std::vector<uint64_t>& c) {
      counter = c[0];
    };
    return hooks;
  }
};

TEST_F(TrainGuardTest, CleanRunExecutesAllEpochs) {
  ToyTrainer trainer;
  GuardConfig config;
  config.epochs = 5;
  Result<TrainReport> report = RunGuardedEpochs(config, trainer.Hooks());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epochs_run, 5u);
  EXPECT_EQ(report->recoveries, 0);
  EXPECT_FLOAT_EQ(report->lr_scale, 1.0f);
  EXPECT_FLOAT_EQ(trainer.state[1], 5.0f);
  EXPECT_EQ(trainer.counter, 5u);
}

TEST_F(TrainGuardTest, InjectedDivergenceRecoversWithBackoff) {
  ToyTrainer trainer;
  GuardConfig config;
  config.epochs = 4;
  failpoint::Arm("train.diverge", /*match=*/2, /*times=*/1);

  Result<TrainReport> report = RunGuardedEpochs(config, trainer.Hooks());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Epoch 2 ran twice: once poisoned + discarded, once clean.
  EXPECT_EQ(report->epochs_run, 5u);
  EXPECT_EQ(report->recoveries, 1);
  EXPECT_FLOAT_EQ(report->lr_scale, 0.5f);
  ASSERT_EQ(report->events.size(), 1u);
  EXPECT_EQ(report->events[0].epoch, 2u);
  EXPECT_FLOAT_EQ(report->events[0].lr_scale, 0.5f);
  EXPECT_EQ(report->events[0].reason, "non-finite parameters");
  // Final state is finite, and the discarded epoch left no trace: epochs
  // 0,1 at scale 1.0 plus epochs 2,3 at scale 0.5.
  EXPECT_TRUE(std::isfinite(trainer.state[0]));
  EXPECT_FLOAT_EQ(trainer.state[0], 1.0f + 1.0f + 0.5f + 0.5f);
  EXPECT_FLOAT_EQ(trainer.state[1], 4.0f);
  // The rewound counter matches: 4 committed epochs, not 5.
  EXPECT_EQ(trainer.counter, 4u);
}

TEST_F(TrainGuardTest, NonFiniteLossTriggersRecovery) {
  ToyTrainer trainer;
  GuardConfig config;
  config.epochs = 2;
  int calls = 0;
  GuardedTrainHooks hooks = trainer.Hooks();
  hooks.run_epoch = [&](size_t epoch, float lr_scale) {
    ++calls;
    if (epoch == 1 && calls == 2) {
      return std::numeric_limits<double>::infinity();
    }
    trainer.state[0] += lr_scale;
    return 0.0;
  };
  Result<TrainReport> report = RunGuardedEpochs(config, hooks);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->recoveries, 1);
  EXPECT_EQ(report->events[0].reason, "non-finite loss");
}

TEST_F(TrainGuardTest, RecoveryDisabledAbortsAndRewinds) {
  ToyTrainer trainer;
  GuardConfig config;
  config.epochs = 4;
  config.max_recoveries = 0;
  failpoint::Arm("train.diverge", /*match=*/2, /*times=*/1);

  Result<TrainReport> report = RunGuardedEpochs(config, trainer.Hooks());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kAborted);
  EXPECT_NE(report.status().message().find("after 0 recovery attempts"),
            std::string::npos);
  // Parameters rewound to the last committed state (end of epoch 1).
  EXPECT_FLOAT_EQ(trainer.state[0], 2.0f);
  EXPECT_FLOAT_EQ(trainer.state[1], 2.0f);
  EXPECT_EQ(trainer.counter, 2u);
}

TEST_F(TrainGuardTest, BudgetExhaustionAborts) {
  ToyTrainer trainer;
  GuardConfig config;
  config.epochs = 4;
  config.max_recoveries = 2;
  // Every retry of epoch 1 diverges again.
  failpoint::Arm("train.diverge", /*match=*/1, failpoint::kForever);

  Result<TrainReport> report = RunGuardedEpochs(config, trainer.Hooks());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kAborted);
  EXPECT_NE(report.status().message().find("after 2 recovery attempts"),
            std::string::npos);
  // Left at the end-of-epoch-0 snapshot, finite.
  EXPECT_FLOAT_EQ(trainer.state[1], 1.0f);
  EXPECT_TRUE(std::isfinite(trainer.state[0]));
}

// ---------------------------------------------------------------------------
// Model-level integration: real trainers route every epoch through the
// guard, so an injected NaN mid-training recovers (or aborts) end to end.
// ---------------------------------------------------------------------------

class GuardedModelTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
  }
  void TearDown() override { failpoint::DisarmAll(); }
  std::unique_ptr<Dataset> dataset_;
};

TEST_P(GuardedModelTest, InjectedNanRecoversAndFinishesFinite) {
  TrainConfig config = testing_util::FastConfig(GetParam());
  auto model = CreateModel(GetParam(), *dataset_, config);
  failpoint::Arm("train.diverge", /*match=*/1, /*times=*/1);
  Rng rng(11);
  Status trained = model->Train(*dataset_, rng);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  const TrainReport& report = model->last_train_report();
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_FLOAT_EQ(report.lr_scale, 0.5f);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].epoch, 1u);
  // The trained model scores are finite.
  for (const Triple& t : dataset_->test()) {
    EXPECT_TRUE(std::isfinite(model->Score(t)));
  }
}

TEST_P(GuardedModelTest, RecoveryDisabledReturnsAborted) {
  TrainConfig config = testing_util::FastConfig(GetParam());
  config.max_recoveries = 0;
  auto model = CreateModel(GetParam(), *dataset_, config);
  failpoint::Arm("train.diverge", /*match=*/1, /*times=*/1);
  Rng rng(11);
  Status trained = model->Train(*dataset_, rng);
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.code(), StatusCode::kAborted);
  // Aborted training still leaves finite (last committed) parameters.
  for (const Triple& t : dataset_->test()) {
    EXPECT_TRUE(std::isfinite(model->Score(t)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, GuardedModelTest,
    ::testing::Values(ModelKind::kTransE, ModelKind::kComplEx,
                      ModelKind::kConvE, ModelKind::kDistMult,
                      ModelKind::kRotatE),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

TEST_F(TrainGuardTest, GuardedTrainingIsBitwiseIdenticalToUnguarded) {
  // The guardrails multiply by lr_scale == 1.0 and only *read* parameters
  // on the happy path, so a guarded run must equal a plain epoch loop bit
  // for bit.
  ToyTrainer guarded;
  GuardConfig config;
  config.epochs = 6;
  Result<TrainReport> report = RunGuardedEpochs(config, guarded.Hooks());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ToyTrainer plain;
  for (size_t e = 0; e < config.epochs; ++e) plain.run_epoch(e, 1.0f);

  EXPECT_EQ(guarded.state, plain.state);
  EXPECT_EQ(guarded.counter, plain.counter);
}

TEST_F(TrainGuardTest, GradientClippingTrainsUsably) {
  Dataset dataset = testing_util::MakeToyDataset();
  TrainConfig config = testing_util::FastConfig(ModelKind::kComplEx);
  config.grad_clip_norm = 1.0f;
  auto model = CreateModel(ModelKind::kComplEx, dataset, config);
  Rng rng(11);
  ASSERT_TRUE(model->Train(dataset, rng).ok());
  for (const Triple& t : dataset.test()) {
    EXPECT_TRUE(std::isfinite(model->Score(t)));
  }
}

}  // namespace
}  // namespace kelpie
