// Sparse/dense byte-identity across every architecture (DESIGN.md §16):
// TrainConfig::sparse_updates changes optimizer *storage*, never
// arithmetic, so parameters, mimics, checkpoints and resumed runs must be
// bitwise indistinguishable between the two paths.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "ml/checkpoint.h"
#include "ml/optimizer.h"
#include "models/factory.h"
#include "models/model_store.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

const ModelKind kAllKinds[] = {ModelKind::kTransE, ModelKind::kComplEx,
                               ModelKind::kConvE, ModelKind::kDistMult,
                               ModelKind::kRotatE};

class SparseParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("kelpie_sparse_parity_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }
  void TearDown() override { failpoint::DisarmAll(); }

  static std::string CkptDir(const std::string& name) {
    return (*dir_ / name).string();
  }

  static TrainConfig Config(ModelKind kind, bool sparse) {
    TrainConfig config = testing_util::FastConfig(kind);
    config.epochs = 6;
    config.sparse_updates = sparse;
    return config;
  }

  static std::string ParamsBytes(const LinkPredictionModel& model) {
    std::ostringstream out;
    Status s = model.SaveParameters(out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::move(out).str();
  }

  static std::unique_ptr<LinkPredictionModel> TrainPlain(ModelKind kind,
                                                         bool sparse,
                                                         uint64_t seed) {
    auto model = CreateModel(kind, *dataset_, Config(kind, sparse));
    Rng rng(seed);
    EXPECT_TRUE(model->Train(*dataset_, rng).ok());
    return model;
  }

  /// sparse_updates is deliberately excluded from the train fingerprint
  /// (models trained either way are interchangeable), so both modes share
  /// one checkpoint identity.
  static uint64_t Fingerprint(ModelKind kind, uint64_t seed) {
    return ComputeTrainFingerprint(kind, Config(kind, false), *dataset_,
                                   seed);
  }

  static void TrainInterrupted(ModelKind kind, bool sparse, uint64_t seed,
                               const std::string& ckpt_dir,
                               uint64_t interrupt_epoch) {
    auto model = CreateModel(kind, *dataset_, Config(kind, sparse));
    CheckpointOptions options;
    options.directory = ckpt_dir;
    options.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    failpoint::Arm("train.interrupt", interrupt_epoch);
    Rng rng(seed);
    Status status = model->Train(*dataset_, rng, control);
    failpoint::DisarmAll();
    EXPECT_EQ(status.code(), StatusCode::kAborted) << status.ToString();
  }

  static std::unique_ptr<LinkPredictionModel> TrainResumed(
      ModelKind kind, bool sparse, uint64_t seed, const std::string& ckpt_dir,
      CheckpointRestoreOutcome* outcome = nullptr) {
    auto model = CreateModel(kind, *dataset_, Config(kind, sparse));
    CheckpointOptions options;
    options.directory = ckpt_dir;
    options.resume = true;
    options.fingerprint = Fingerprint(kind, seed);
    TrainCheckpointer checkpointer(options);
    TrainControl control;
    control.checkpointer = &checkpointer;
    Rng rng(seed);
    EXPECT_TRUE(model->Train(*dataset_, rng, control).ok());
    if (outcome != nullptr) *outcome = checkpointer.last_restore_outcome();
    return model;
  }

  static Dataset* dataset_;
  static std::filesystem::path* dir_;
};

Dataset* SparseParityTest::dataset_ = nullptr;
std::filesystem::path* SparseParityTest::dir_ = nullptr;

TEST_F(SparseParityTest, SparseTrainingIsByteIdenticalForEveryModel) {
  for (ModelKind kind : kAllKinds) {
    SCOPED_TRACE(ModelKindName(kind));
    auto dense = TrainPlain(kind, /*sparse=*/false, /*seed=*/11);
    auto sparse = TrainPlain(kind, /*sparse=*/true, /*seed=*/11);
    EXPECT_EQ(ParamsBytes(*dense), ParamsBytes(*sparse));
  }
}

TEST_F(SparseParityTest, PostTrainMimicAgreesAcrossModes) {
  // The mimic optimizer rides the same seam; with identical base
  // parameters the post-trained rows must agree bitwise, cold and warm.
  for (ModelKind kind : kAllKinds) {
    SCOPED_TRACE(ModelKindName(kind));
    auto dense = TrainPlain(kind, /*sparse=*/false, /*seed=*/11);
    auto sparse = TrainPlain(kind, /*sparse=*/true, /*seed=*/11);
    const EntityId entity = 3;
    const std::vector<Triple> facts =
        dataset_->train_graph().FactsOf(entity);
    ASSERT_FALSE(facts.empty());
    Rng rng_a(99), rng_b(99);
    EXPECT_EQ(dense->PostTrainMimic(*dataset_, entity, facts, rng_a),
              sparse->PostTrainMimic(*dataset_, entity, facts, rng_b));
    Rng rng_c(99), rng_d(99);
    EXPECT_EQ(dense->PostTrainMimic(*dataset_, entity, facts, rng_c,
                                    dense->EntityEmbedding(entity)),
              sparse->PostTrainMimic(*dataset_, entity, facts, rng_d,
                                     sparse->EntityEmbedding(entity)));
  }
}

TEST_F(SparseParityTest, SparseCheckpointResumeIsByteIdentical) {
  // Interrupt a sparse checkpointed run mid-schedule and resume: the
  // "sparse" checkpoint section must restore the touched-row state exactly,
  // converging to the bytes of an uninterrupted sparse run — which are the
  // bytes of the dense run.
  for (ModelKind kind : kAllKinds) {
    SCOPED_TRACE(ModelKindName(kind));
    const std::string reference =
        ParamsBytes(*TrainPlain(kind, /*sparse=*/true, /*seed=*/21));
    const std::string ckpt =
        CkptDir(std::string("sparse_resume_") +
                std::string(ModelKindName(kind)));
    TrainInterrupted(kind, /*sparse=*/true, /*seed=*/21, ckpt,
                     /*interrupt_epoch=*/3);
    CheckpointRestoreOutcome outcome = CheckpointRestoreOutcome::kNotAttempted;
    auto resumed =
        TrainResumed(kind, /*sparse=*/true, /*seed=*/21, ckpt, &outcome);
    EXPECT_EQ(outcome, CheckpointRestoreOutcome::kRestored);
    EXPECT_EQ(ParamsBytes(*resumed), reference);
    EXPECT_EQ(reference,
              ParamsBytes(*TrainPlain(kind, /*sparse=*/false, /*seed=*/21)));
  }
}

TEST_F(SparseParityTest, CrossToggleResumeDegradesToScratchSafely) {
  // A dense checkpoint offered to a sparse trainer (or vice versa) has a
  // different parameter-span layout for the stateful models; the guard must
  // degrade to scratch — and scratch still converges to the right bytes —
  // rather than misapply spans. ComplEx exercises the bilinear layout.
  const ModelKind kind = ModelKind::kComplEx;
  const std::string ckpt = CkptDir("cross_toggle");
  TrainInterrupted(kind, /*sparse=*/false, /*seed=*/31, ckpt,
                   /*interrupt_epoch=*/3);
  CheckpointRestoreOutcome outcome = CheckpointRestoreOutcome::kNotAttempted;
  auto resumed =
      TrainResumed(kind, /*sparse=*/true, /*seed=*/31, ckpt, &outcome);
  EXPECT_EQ(outcome, CheckpointRestoreOutcome::kShapeMismatch);
  EXPECT_EQ(ParamsBytes(*resumed),
            ParamsBytes(*TrainPlain(kind, /*sparse=*/true, /*seed=*/31)));
}

TEST_F(SparseParityTest, CheckpointRoundTripsRowTouchedOnlyBeforeResume) {
  // Satellite edge case: a row touched only in the epochs *before* the
  // checkpoint must come back with its accumulator bytes intact even
  // though nothing touches it afterwards. Driven at the checkpoint layer:
  // the sparse blob is an opaque section, so preserving it exactly is the
  // whole contract. Two tables, as a bilinear model checkpoints its entity
  // and relation optimizers, so the composed blob splits into two parts.
  SparseRowAdagrad entities(8, 4, 0.1f);
  SparseRowAdagrad relations(8, 4, 0.05f);
  std::vector<float> row(4, 0.5f);
  const std::vector<float> grad = {0.1f, -0.2f, 0.3f, -0.4f};
  entities.StepSpan(row, 2, grad);  // row 2: touched once, never again
  relations.StepSpan(row, 5, grad);
  relations.StepSpan(row, 5, grad);

  CheckpointState state;
  state.next_epoch = 3;
  state.sparse =
      ComposeSparseBlobs({entities.SaveState(), relations.SaveState()});

  CheckpointOptions options;
  options.directory = CkptDir("sparse_row_epoch_n");
  options.resume = true;
  options.fingerprint = 0x5eedf00d;
  TrainCheckpointer checkpointer(options);
  ASSERT_TRUE(checkpointer.Save(state).ok());
  std::optional<CheckpointState> restored = checkpointer.TryRestore();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sparse, state.sparse);

  std::vector<std::string> parts;
  ASSERT_TRUE(SplitSparseBlobs(restored->sparse, 2, parts));
  SparseRowAdagrad entities2(8, 4, 0.1f);
  SparseRowAdagrad relations2(8, 4, 0.05f);
  ASSERT_TRUE(entities2.RestoreState(parts[0]));
  ASSERT_TRUE(relations2.RestoreState(parts[1]));
  EXPECT_EQ(entities2.SaveState(), parts[0]);
  EXPECT_EQ(relations2.SaveState(), parts[1]);

  // Touch *different* rows after the resume, then step each old row once
  // more in both the original and the restored optimizer: identical
  // updates prove the old accumulator bytes survived untouched.
  entities2.StepSpan(row, 7, grad);
  relations2.StepSpan(row, 1, grad);
  EXPECT_EQ(entities2.touched_rows(), 2u);
  EXPECT_EQ(relations2.touched_rows(), 2u);
  std::vector<float> original_row = {1.0f, 1.0f, 1.0f, 1.0f};
  std::vector<float> restored_row = original_row;
  entities.StepSpan(original_row, 2, grad);
  entities2.StepSpan(restored_row, 2, grad);
  EXPECT_EQ(original_row, restored_row);
  relations.StepSpan(original_row, 5, grad);
  relations2.StepSpan(restored_row, 5, grad);
  EXPECT_EQ(original_row, restored_row);
}

}  // namespace
}  // namespace kelpie
