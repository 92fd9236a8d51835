// Seeded mutation test over the five on-disk formats (model file, training
// checkpoint, relevance cache, experiment journal, update journal). Each
// starts from a valid file, takes a fixed, seeded set of mutations — bit
// flips, truncations, appended garbage, rewritten length fields, duplicated
// and swapped frames — and is fed to the format's public loader, which must
// end in a named Status or outcome: never an abort, and never data that
// differs from what was written. Runs under ctest (`ctest -L fuzz`) and in
// the ASan/UBSan job.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/record_file.h"
#include "core/relevance_cache.h"
#include "math/rng.h"
#include "ml/checkpoint.h"
#include "models/factory.h"
#include "models/model_store.h"
#include "tests/test_util.h"
#include "xp/journal.h"
#include "xp/update.h"

namespace kelpie {
namespace {

constexpr int kMutationsPerFormat = 60;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ParamsBytes(const LinkPredictionModel& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.SaveParameters(out).ok());
  return std::move(out).str();
}

/// [begin, end) of every frame of a valid record file, found by reading it
/// with its own magic and version.
std::vector<std::pair<size_t, size_t>> FrameSpans(const std::string& bytes) {
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[8 + i]))
               << (8 * i);
  }
  const record_file::Format format{std::string_view(bytes).substr(0, 8),
                                   version};
  record_file::Reader reader(format, bytes);
  EXPECT_EQ(reader.header(), record_file::HeaderOutcome::kOk);
  std::vector<std::pair<size_t, size_t>> spans;
  size_t start = record_file::kHeaderSize;
  record_file::Frame frame;
  while (reader.Next(frame)) {
    EXPECT_EQ(frame.outcome, record_file::FrameOutcome::kOk);
    spans.emplace_back(start, frame.end);
    start = frame.end;
  }
  return spans;
}

/// One seeded mutation of `valid` (which has at least one frame).
std::string Mutate(const std::string& valid, Rng& rng) {
  const auto spans = FrameSpans(valid);
  std::string bytes = valid;
  const auto pick = [&](uint64_t n) { return rng.UniformUint64(n); };
  switch (pick(6)) {
    case 0: {  // bit flip anywhere
      const size_t at = pick(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << pick(8)));
      break;
    }
    case 1:  // truncation
      bytes.resize(pick(bytes.size()));
      break;
    case 2: {  // appended garbage
      const size_t n = 1 + pick(64);
      for (size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(pick(256)));
      }
      break;
    }
    case 3: {  // rewritten length field
      const auto& [begin, end] = spans[pick(spans.size())];
      const uint64_t lengths[] = {rng.NextUint64(), pick(64),
                                  end - begin + pick(16), uint64_t{1} << 31};
      const uint64_t length = lengths[pick(4)];
      for (int i = 0; i < 8; ++i) {
        bytes[begin + 1 + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
      }
      break;
    }
    case 4: {  // duplicated frame
      const auto& [begin, end] = spans[pick(spans.size())];
      bytes.insert(end, valid.substr(begin, end - begin));
      break;
    }
    default: {  // two frames swapped
      if (spans.size() < 2) break;
      size_t a = pick(spans.size());
      size_t b = pick(spans.size() - 1);
      if (b >= a) ++b;
      if (a > b) std::swap(a, b);
      const auto [a0, a1] = spans[a];
      const auto [b0, b1] = spans[b];
      bytes = valid.substr(0, a0) + valid.substr(b0, b1 - b0) +
              valid.substr(a1, b0 - a1) + valid.substr(a0, a1 - a0) +
              valid.substr(b1);
      break;
    }
  }
  return bytes;
}

class FormatMutationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    config_ = new TrainConfig(testing_util::FastConfig(ModelKind::kTransE));
    config_->epochs = 5;
    model_ = CreateModel(ModelKind::kTransE, *dataset_, *config_).release();
    Rng rng(3);
    ASSERT_TRUE(model_->Train(*dataset_, rng).ok());
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("kelpie_format_mutation_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete model_;
    delete config_;
    delete dataset_;
  }

  static std::string Path(const std::string& name) {
    return (*dir_ / name).string();
  }

  static std::unique_ptr<LinkPredictionModel> Clone() {
    auto clone = CreateModel(ModelKind::kTransE, *dataset_, *config_);
    std::stringstream buffer;
    EXPECT_TRUE(model_->SaveParameters(buffer).ok());
    EXPECT_TRUE(clone->LoadParameters(buffer).ok());
    return clone;
  }

  /// Writes each seeded mutation of `valid` to `path` and runs `check`.
  template <typename Check>
  static void ForEachMutation(uint64_t seed, const std::string& valid,
                              const std::string& path, Check check) {
    Rng rng(seed);
    for (int i = 0; i < kMutationsPerFormat; ++i) {
      SCOPED_TRACE("mutation " + std::to_string(i));
      WriteFile(path, Mutate(valid, rng));
      check();
    }
  }

  static Dataset* dataset_;
  static TrainConfig* config_;
  static LinkPredictionModel* model_;
  static std::filesystem::path* dir_;
};

Dataset* FormatMutationTest::dataset_ = nullptr;
TrainConfig* FormatMutationTest::config_ = nullptr;
LinkPredictionModel* FormatMutationTest::model_ = nullptr;
std::filesystem::path* FormatMutationTest::dir_ = nullptr;

TEST_F(FormatMutationTest, ModelFile) {
  const std::string path = Path("model.bin");
  ASSERT_TRUE(SaveModel(*model_, ModelKind::kTransE, path).ok());
  const std::string valid = ReadFile(path);
  const std::string params = ParamsBytes(*model_);
  ForEachMutation(1, valid, path, [&] {
    Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path);
    if (loaded.ok()) {
      EXPECT_EQ(ParamsBytes(**loaded), params);
      return;
    }
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  });
}

TEST_F(FormatMutationTest, Checkpoint) {
  CheckpointState state;
  state.next_epoch = 4;
  state.lr_scale = 0.5f;
  state.recoveries_left = 2;
  state.report.events.push_back({1, 0.5f, "non-finite parameters"});
  state.counters = {3, 5};
  state.params = {{1.0f, 2.0f, 3.0f}, {4.0f}, {}};
  state.sparse = "opaque";
  CheckpointOptions options;
  options.directory = Path("ckpt");
  options.resume = true;
  options.fingerprint = 77;
  TrainCheckpointer checkpointer(options);
  ASSERT_TRUE(checkpointer.Save(state).ok());
  const std::string valid = ReadFile(checkpointer.FilePath());
  ForEachMutation(2, valid, checkpointer.FilePath(), [&] {
    std::optional<CheckpointState> restored = checkpointer.TryRestore();
    const CheckpointRestoreOutcome outcome =
        checkpointer.last_restore_outcome();
    if (outcome == CheckpointRestoreOutcome::kRestored) {
      ASSERT_TRUE(restored.has_value());
      EXPECT_EQ(restored->next_epoch, state.next_epoch);
      EXPECT_EQ(restored->counters, state.counters);
      EXPECT_EQ(restored->params, state.params);
      EXPECT_EQ(restored->sparse, state.sparse);
      return;
    }
    EXPECT_FALSE(restored.has_value());
    EXPECT_TRUE(outcome == CheckpointRestoreOutcome::kCorrupt ||
                outcome == CheckpointRestoreOutcome::kStaleConfig)
        << CheckpointRestoreOutcomeName(outcome);
  });
}

TEST_F(FormatMutationTest, RelevanceCache) {
  const auto mimic = [](EntityId e) {
    return std::vector<float>{static_cast<float>(e), 1.5f, -2.0f};
  };
  const auto facts = [](EntityId e) {
    return std::vector<Triple>{Triple(e, 0, e + 1)};
  };
  RelevanceCacheOptions options;
  options.path = Path("cache.kelprc");
  options.fingerprint = 42;
  {
    auto cache = RelevanceCache::Open(options);
    for (EntityId e = 0; e < 5; ++e) {
      cache->GetOrCompute(e, facts(e), [&] { return mimic(e); });
    }
    ASSERT_TRUE(cache->Flush().ok());
  }
  const std::string valid = ReadFile(options.path);
  ForEachMutation(3, valid, options.path, [&] {
    Result<RelevanceCacheFileInfo> info = RelevanceCache::Inspect(options.path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto cache = RelevanceCache::Open(options);
    EXPECT_LE(cache->stats().entries, 5u);
    for (EntityId e = 0; e < 5; ++e) {
      EXPECT_EQ(cache->GetOrCompute(e, facts(e), [&] { return mimic(e); }),
                mimic(e));
    }
  });
}

TEST_F(FormatMutationTest, ExperimentJournal) {
  const std::string path = Path("run.jnl");
  std::vector<PredictionRecord> records(4);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].prediction = Triple(static_cast<EntityId>(i), 1, 2);
    records[i].facts = {Triple(static_cast<EntityId>(i), 0, 3)};
    records[i].relevance = 0.5 * static_cast<double>(i);
  }
  RunSummary summary;
  summary.predictions = records.size();
  {
    Result<RunJournal> journal = RunJournal::Open(path, 99, false);
    ASSERT_TRUE(journal.ok());
    for (const PredictionRecord& r : records) {
      ASSERT_TRUE(journal->Append(r).ok());
    }
    ASSERT_TRUE(journal->AppendSummary(summary).ok());
  }
  const std::string valid = ReadFile(path);
  ForEachMutation(4, valid, path, [&] {
    Result<RunJournal> resumed = RunJournal::Open(path, 99, true);
    if (!resumed.ok()) {
      EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss)
          << resumed.status().ToString();
      return;
    }
    for (const PredictionRecord& r : resumed->recovered()) {
      EXPECT_NE(std::find(records.begin(), records.end(), r), records.end());
    }
    if (resumed->recovered_summary().has_value()) {
      EXPECT_EQ(*resumed->recovered_summary(), summary);
    }
  });
}

TEST_F(FormatMutationTest, UpdateJournal) {
  const EntityId person = *dataset_->entities().Find("Person_0");
  const RelationId born = *dataset_->relations().Find("born_in");
  xp::KgDelta delta;
  delta.remove.push_back(
      Triple(person, born, *dataset_->entities().Find("City_0")));
  delta.add.push_back(
      Triple(person, born, *dataset_->entities().Find("City_5")));
  xp::UpdateOptions options;
  options.journal_path = Path("update.jnl");
  auto reference = Clone();
  ASSERT_TRUE(xp::ApplyKgUpdate(*reference, *dataset_, delta, options).ok());
  const std::string expected = ParamsBytes(*reference);
  const std::string valid = ReadFile(options.journal_path);
  options.resume = true;
  ForEachMutation(5, valid, options.journal_path, [&] {
    // Whatever survives replays byte-identically; the rest recomputes.
    auto model = Clone();
    Result<xp::UpdateReport> report =
        xp::ApplyKgUpdate(*model, *dataset_, delta, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(ParamsBytes(*model), expected);
  });
}

}  // namespace
}  // namespace kelpie
