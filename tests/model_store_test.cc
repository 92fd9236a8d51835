#include "models/model_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "ml/serialization.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

class ModelStoreTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kelpie_store_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::unique_ptr<Dataset> dataset_;
};

TEST_P(ModelStoreTest, SaveLoadRoundTripPreservesScores) {
  auto model = testing_util::TrainToyModel(GetParam(), *dataset_, 13);
  std::string path = (dir_ / "model.bin").string();
  ASSERT_TRUE(SaveModel(*model, GetParam(), path).ok());

  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Name(), model->Name());
  EXPECT_EQ((*loaded)->num_entities(), model->num_entities());
  EXPECT_EQ((*loaded)->num_relations(), model->num_relations());
  // Scores are preserved bit-for-bit.
  for (const Triple& t : dataset_->test()) {
    EXPECT_FLOAT_EQ((*loaded)->Score(t), model->Score(t));
  }
  // Full ranking agrees too.
  Triple probe = dataset_->test().front();
  std::vector<float> a(model->num_entities()), b(model->num_entities());
  model->ScoreAllTails(probe.head, probe.relation, a);
  (*loaded)->ScoreAllTails(probe.head, probe.relation, b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

TEST_P(ModelStoreTest, LoadedModelSupportsPostTraining) {
  auto model = testing_util::TrainToyModel(GetParam(), *dataset_, 13);
  std::string path = (dir_ / "model.bin").string();
  ASSERT_TRUE(SaveModel(*model, GetParam(), path).ok());
  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  Triple probe = dataset_->test().front();
  std::vector<Triple> facts = dataset_->train_graph().FactsOf(probe.head);
  Rng rng1(5), rng2(5);
  std::vector<float> m1 =
      model->PostTrainMimic(*dataset_, probe.head, facts, rng1);
  std::vector<float> m2 =
      (*loaded)->PostTrainMimic(*dataset_, probe.head, facts, rng2);
  for (size_t i = 0; i < m1.size(); ++i) {
    EXPECT_FLOAT_EQ(m1[i], m2[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelStoreTest,
    ::testing::Values(ModelKind::kTransE, ModelKind::kComplEx,
                      ModelKind::kConvE, ModelKind::kDistMult,
                      ModelKind::kRotatE),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

TEST(ModelStoreErrorsTest, MissingFileFails) {
  Result<std::unique_ptr<LinkPredictionModel>> loaded =
      LoadModel("/nonexistent/kelpie/model.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelStoreErrorsTest, GarbageFileRejected) {
  auto path = std::filesystem::temp_directory_path() / "kelpie_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a model";
  }
  Result<std::unique_ptr<LinkPredictionModel>> loaded =
      LoadModel(path.string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ModelStoreErrorsTest, TruncatedFileRejected) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kTransE, dataset, 3);
  auto dir = std::filesystem::temp_directory_path();
  auto path = dir / "kelpie_truncate.bin";
  ASSERT_TRUE(SaveModel(*model, ModelKind::kTransE, path.string()).ok());
  // Truncate to half size.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  Result<std::unique_ptr<LinkPredictionModel>> loaded =
      LoadModel(path.string());
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Degradation rules of the model format. The framing itself (truncation at
// every frame boundary, a flip in every frame) is covered generically by
// record_file_test: any frame that is not ok is DataLoss here.
// ---------------------------------------------------------------------------

class ModelStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kelpie_corrupt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    Dataset dataset = testing_util::MakeToyDataset();
    auto model = testing_util::TrainToyModel(ModelKind::kComplEx, dataset, 3);
    path_ = (dir_ / "model.bin").string();
    ASSERT_TRUE(SaveModel(*model, ModelKind::kComplEx, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes_ = std::move(buf).str();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteBytes(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  }

  std::filesystem::path dir_;
  std::string path_;
  std::string bytes_;
};

TEST_F(ModelStoreCorruptionTest, DamagedFrameOrHeaderIsDataLoss) {
  // Header CRC, the meta frame's first payload byte, the middle of the
  // parameters, the trailing CRC, and a truncation.
  for (size_t offset : {size_t{10}, size_t{33}, bytes_.size() / 2,
                        bytes_.size() - 1}) {
    std::string corrupted = bytes_;
    corrupted[offset] ^= 0x01;
    WriteBytes(corrupted);
    Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path_);
    ASSERT_FALSE(loaded.ok()) << "flip at " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "flip at " << offset << ": " << loaded.status().ToString();
  }
  WriteBytes(bytes_.substr(0, bytes_.size() - 1));
  EXPECT_EQ(LoadModel(path_).status().code(), StatusCode::kDataLoss);
}

TEST_F(ModelStoreCorruptionTest, FlippedMagicIsNotAModelFile) {
  std::string corrupted = bytes_;
  corrupted[0] ^= 0x01;
  WriteBytes(corrupted);
  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelStoreCorruptionTest, UncorruptedBaselineStillLoads) {
  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path_);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST(ModelDatasetCheckTest, MatchingVocabularyPasses) {
  const Dataset dataset = testing_util::MakeToyDataset();
  auto model = CreateModel(ModelKind::kTransE, dataset,
                           testing_util::FastConfig(ModelKind::kTransE));
  EXPECT_TRUE(CheckModelMatchesDataset(*model, dataset).ok());
}

TEST(ModelDatasetCheckTest, EntityCountMismatchIsInvalidArgument) {
  const Dataset small = testing_util::MakeToyDataset(40);
  const Dataset large = testing_util::MakeToyDataset(50);
  auto model = CreateModel(ModelKind::kTransE, small,
                           testing_util::FastConfig(ModelKind::kTransE));
  const Status status = CheckModelMatchesDataset(*model, large);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("vocabulary mismatch"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("51 entities"), std::string::npos)
      << status.ToString();
}

TEST(ModelDatasetCheckTest, RelationCountMismatchIsInvalidArgument) {
  const Dataset dataset = testing_util::MakeToyDataset();
  // Same entities, one relation fewer.
  Dictionary relations;
  relations.GetOrAdd("born_in");
  relations.GetOrAdd("located_in");
  const Dataset fewer("fewer-relations", dataset.entities(), relations, {},
                      {}, {});
  ASSERT_EQ(fewer.num_entities(), dataset.num_entities());
  auto model = CreateModel(ModelKind::kComplEx, dataset,
                           testing_util::FastConfig(ModelKind::kComplEx));
  const Status status = CheckModelMatchesDataset(*model, fewer);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("3 relations"), std::string::npos)
      << status.ToString();
}

TEST(ModelStoreCrashTest, FailedSaveLeavesPreviousModelIntact) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto dir = std::filesystem::temp_directory_path() /
             ("kelpie_crash_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string path = (dir / "model.bin").string();

  auto original = testing_util::TrainToyModel(ModelKind::kTransE, dataset, 3);
  ASSERT_TRUE(SaveModel(*original, ModelKind::kTransE, path).ok());

  // A save that dies mid-write must not clobber the existing file.
  auto replacement =
      testing_util::TrainToyModel(ModelKind::kTransE, dataset, 99);
  failpoint::Arm("atomic_file.partial_write");
  EXPECT_FALSE(SaveModel(*replacement, ModelKind::kTransE, path).ok());
  failpoint::DisarmAll();

  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const Triple& t : dataset.test()) {
    EXPECT_FLOAT_EQ((*loaded)->Score(t), original->Score(t));
  }
  std::filesystem::remove_all(dir);
}

TEST(SerializationTest, MatrixRoundTrip) {
  Matrix m(3, 4);
  for (size_t i = 0; i < m.size(); ++i) {
    m.Data()[i] = static_cast<float>(i) * 0.5f;
  }
  std::stringstream stream;
  ASSERT_TRUE(WriteMatrix(stream, m).ok());
  Matrix restored;
  ASSERT_TRUE(ReadMatrix(stream, restored).ok());
  EXPECT_EQ(restored.rows(), 3u);
  EXPECT_EQ(restored.cols(), 4u);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(restored.Data()[i], m.Data()[i]);
  }
}

TEST(SerializationTest, StringAndU64RoundTrip) {
  std::stringstream stream;
  ASSERT_TRUE(WriteU64(stream, 0xdeadbeefULL).ok());
  ASSERT_TRUE(WriteString(stream, "kelpie").ok());
  uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(ReadU64(stream, v).ok());
  ASSERT_TRUE(ReadString(stream, s).ok());
  EXPECT_EQ(v, 0xdeadbeefULL);
  EXPECT_EQ(s, "kelpie");
}

TEST(SerializationTest, CorruptLengthHeaderRejected) {
  std::stringstream stream;
  ASSERT_TRUE(WriteU64(stream, 1ull << 60).ok());  // absurd string length
  std::string s;
  Status status = ReadString(stream, s);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kelpie
