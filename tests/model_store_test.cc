#include "models/model_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/record_file.h"
#include "ml/serialization.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

constexpr record_file::Format kModelFormat{"KELPIEMD", 3};
constexpr uint8_t kModelFrames[] = {1, 2};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

/// A checksum-valid model file holding `meta` and `params` as its frames.
std::string ModelFile(std::string_view meta, std::string_view params) {
  std::string image = record_file::Header(kModelFormat, 0);
  record_file::AppendFrame(image, 1, meta);
  record_file::AppendFrame(image, 2, params);
  return image;
}

/// The (meta, params) frames of the model file at `path`.
std::vector<std::string> ModelFrames(const std::string& path) {
  record_file::Reader reader(kModelFormat, ReadFile(path));
  Result<std::vector<std::string_view>> frames =
      reader.ReadSequence(kModelFrames);
  EXPECT_TRUE(frames.ok()) << frames.status().ToString();
  if (!frames.ok()) return {"", ""};
  return {std::string((*frames)[0]), std::string((*frames)[1])};
}

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

/// Whether each tensor of a model's params frame is a matrix (WriteMatrix)
/// or a flat vector (WriteFloats), in file order.
std::vector<bool> TensorIsMatrix(ModelKind kind) {
  if (kind == ModelKind::kConvE) {
    // Entities, relations, entity bias, conv weights, conv bias, FC
    // weights, FC bias.
    return {true, true, false, true, false, true, false};
  }
  return {true, true};  // entities, relations (RotatE: phases)
}

/// `params` with tensor `target` reshaped: one more row or float when
/// `grow`, else the matrix transposed (false when it cannot be).
bool ReshapeTensor(const std::string& params, const std::vector<bool>& layout,
                   size_t target, bool grow, std::string& out_params) {
  std::istringstream in(params);
  std::ostringstream out;
  bool changed = false;
  for (size_t i = 0; i < layout.size(); ++i) {
    if (layout[i]) {
      Matrix m;
      EXPECT_TRUE(ReadMatrix(in, m).ok());
      if (i == target && grow) {
        m = Matrix(m.rows() + 1, m.cols());
        changed = true;
      } else if (i == target && m.rows() != m.cols()) {
        m = Matrix(m.cols(), m.rows());
        changed = true;
      }
      EXPECT_TRUE(WriteMatrix(out, m).ok());
    } else {
      std::vector<float> v;
      EXPECT_TRUE(ReadFloats(in, v).ok());
      if (i == target && grow) {
        v.push_back(0.0f);
        changed = true;
      }
      EXPECT_TRUE(WriteFloats(out, v).ok());
    }
  }
  EXPECT_EQ(in.peek(), std::char_traits<char>::eof())
      << "the layout does not cover the params frame";
  out_params = std::move(out).str();
  return changed;
}

TEST_P(ModelStoreTest, EveryTensorShapeIsChecked) {
  const ModelKind kind = GetParam();
  auto model = testing_util::TrainToyModel(kind, *dataset_, 13);
  const std::string path = (dir_ / "model.bin").string();
  ASSERT_TRUE(SaveModel(*model, kind, path).ok());
  const std::vector<std::string> frames = ModelFrames(path);
  const std::vector<bool> layout = TensorIsMatrix(kind);

  // The frames re-assembled unchanged load, so the layout is the file's.
  std::string same;
  ASSERT_FALSE(ReshapeTensor(frames[1], layout, layout.size(), true, same));
  WriteFile(path, ModelFile(frames[0], same));
  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (size_t target = 0; target < layout.size(); ++target) {
    for (bool grow : {true, false}) {
      std::string params;
      if (!ReshapeTensor(frames[1], layout, target, grow, params)) continue;
      WriteFile(path, ModelFile(frames[0], params));
      loaded = LoadModel(path);
      ASSERT_FALSE(loaded.ok()) << "tensor " << target << " grow=" << grow;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "tensor " << target << " grow=" << grow << ": "
          << loaded.status().ToString();
    }
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

// ---------------------------------------------------------------------------
// The v3 layout, pinned: each model trains 3 epochs on the toy dataset from
// a fixed seed. Model files on disk and training checkpoints (bound by the
// fingerprint) persist these bits, so any change to the meta slots, the
// tensor order or the trained bytes would silently orphan them.
// ---------------------------------------------------------------------------

struct FilePin {
  ModelKind kind;
  uint32_t file_crc;
  uint64_t fingerprint;
};

TEST(ModelFilePinTest, FileBytesAndFingerprintArePinned) {
  constexpr uint64_t kSeed = 17;
  constexpr FilePin kPins[] = {
      {ModelKind::kTransE, 0xab5362abu, 0x2f3da8079d4da508ULL},
      {ModelKind::kComplEx, 0xd3bed7a1u, 0x328ed5469d4da508ULL},
      {ModelKind::kConvE, 0x79197aecu, 0xfaffc8b39d4da508ULL},
      {ModelKind::kDistMult, 0xd10aeb48u, 0x63c712219d4da508ULL},
      {ModelKind::kRotatE, 0xd608d8f6u, 0xccc9400c9d4da508ULL},
  };
  const Dataset dataset = testing_util::MakeToyDataset();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("kelpie_pin_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "model.bin").string();
  for (const FilePin& pin : kPins) {
    TrainConfig config = testing_util::FastConfig(pin.kind);
    config.epochs = 3;
    auto model = CreateModel(pin.kind, dataset, config);
    Rng rng(kSeed);
    ASSERT_TRUE(model->Train(dataset, rng).ok());
    ASSERT_TRUE(SaveModel(*model, pin.kind, path).ok());
    EXPECT_EQ(Crc32c(ReadFile(path)), pin.file_crc)
        << ModelKindName(pin.kind) << std::hex << " file crc 0x"
        << Crc32c(ReadFile(path));
    const uint64_t fingerprint =
        ComputeTrainFingerprint(pin.kind, config, dataset, kSeed);
    EXPECT_EQ(fingerprint, pin.fingerprint)
        << ModelKindName(pin.kind) << std::hex << " fingerprint 0x"
        << fingerprint;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checksum-valid files whose meta frame describes a model that cannot be
// built or used. Each is a data error (InvalidArgument), never an abort.
// ---------------------------------------------------------------------------

/// Slot values of a KELPIEMD v3 meta frame: the kind, the table sizes, then
/// TrainConfig as model files store it (three u64, twelve floats, seven
/// u64). Unnamed slots hold TransE's test values.
struct MetaSlots {
  std::string kind = "TransE";
  uint64_t num_entities = 51;
  uint64_t num_relations = 3;
  uint64_t dim = 16;
  float negatives_per_positive = 5.0f;
  uint64_t conv_kernel = 3;
  uint64_t recover = 1;
};

std::string MetaFrame(const MetaSlots& m) {
  std::ostringstream out;
  EXPECT_TRUE(WriteString(out, m.kind).ok());
  // Entities, relations; dim, epochs, batch size.
  for (uint64_t v : {m.num_entities, m.num_relations, m.dim, uint64_t{30},
                     uint64_t{64}}) {
    EXPECT_TRUE(WriteU64(out, v).ok());
  }
  // learning rate, regularization, margin, negatives, conv lr, label
  // smoothing, three dropouts, post-training lr, lr backoff, grad clip.
  const std::vector<float> floats{0.05f, 0.0f,  2.0f, m.negatives_per_positive,
                                  0.01f, 0.1f,  0.2f, 0.2f,
                                  0.3f,  0.05f, 0.5f, 0.0f};
  EXPECT_TRUE(WriteFloats(out, floats).ok());
  // conv channels, conv kernel, reshape height, post-training epochs,
  // check-finite, recover, max recoveries.
  for (uint64_t v : {uint64_t{8}, m.conv_kernel, uint64_t{4}, uint64_t{25},
                     uint64_t{1}, m.recover, uint64_t{3}}) {
    EXPECT_TRUE(WriteU64(out, v).ok());
  }
  return std::move(out).str();
}

class CraftedModelFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kelpie_crafted_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "model.bin").string();
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    auto model =
        testing_util::TrainToyModel(ModelKind::kTransE, *dataset_, 3);
    std::ostringstream params;
    ASSERT_TRUE(model->SaveParameters(params).ok());
    params_ = std::move(params).str();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Loads a file of `meta` over the toy TransE parameters. A file that
  /// loads must also post-train, so a slot that slips through still shows.
  Status Load(const MetaSlots& meta) {
    WriteFile(path_, ModelFile(MetaFrame(meta), params_));
    Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path_);
    if (!loaded.ok()) return loaded.status();
    const EntityId entity = dataset_->test().front().head;
    Rng rng(5);
    (*loaded)->PostTrainMimic(*dataset_, entity,
                              dataset_->train_graph().FactsOf(entity), rng);
    return Status::Ok();
  }

  void ExpectRejected(const MetaSlots& meta, std::string_view reason) {
    const Status status = Load(meta);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find(reason), std::string::npos)
        << status.ToString();
  }

  std::filesystem::path dir_;
  std::string path_;
  std::unique_ptr<Dataset> dataset_;
  std::string params_;
};

TEST_F(CraftedModelFileTest, ValidSlotsLoadAndPostTrain) {
  const Status status = Load(MetaSlots{});
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(CraftedModelFileTest, RecoverSlotOfZeroReadsAsNoRecoveries) {
  for (uint64_t recover : {uint64_t{1}, uint64_t{0}}) {
    MetaSlots meta;
    meta.recover = recover;
    WriteFile(path_, ModelFile(MetaFrame(meta), params_));
    Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->config().max_recoveries, recover == 0 ? 0 : 3);
  }
}

TEST_F(CraftedModelFileTest, HugeEntityTableIsRejected) {
  MetaSlots meta;
  meta.num_entities = uint64_t{1} << 40;
  meta.dim = 32;
  ExpectRejected(meta, "exceed the matrix limits");
}

TEST_F(CraftedModelFileTest, HugeDimIsRejected) {
  MetaSlots meta;
  meta.dim = 1000000000;
  ExpectRejected(meta, "exceed the matrix limits");
}

TEST_F(CraftedModelFileTest, NegativeNegativesSlotIsRejected) {
  MetaSlots meta;
  meta.negatives_per_positive = -7.0f;
  ExpectRejected(meta, "negatives per positive must be >= 1");
}

TEST_F(CraftedModelFileTest, NegativesSlotOutsideIntIsRejected) {
  MetaSlots meta;
  meta.negatives_per_positive = 1e20f;
  ExpectRejected(meta, "negatives per positive out of range");
}

TEST_F(CraftedModelFileTest, NonFiniteSlotIsRejected) {
  MetaSlots meta;
  meta.negatives_per_positive = std::numeric_limits<float>::quiet_NaN();
  ExpectRejected(meta, "non-finite config value");
}

TEST_F(CraftedModelFileTest, ConvKernelLargerThanTheImageIsRejected) {
  MetaSlots meta;
  meta.kind = "ConvE";
  meta.conv_kernel = 9;  // the 16-float embedding is an 8x4 image
  ExpectRejected(meta, "does not fit");
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
