// Crash-safety contract of the persistent relevance cache (DESIGN.md §13):
// a cached mimic is bitwise identical to a recompute, corruption of any
// shape (torn tail, bit flip, stale fingerprint, crashed writer) degrades
// to a cache miss — never an error, never wrong bytes — and explanations
// are byte-identical with the cache off, cold, warm, or
// corrupted-then-recovered, at any thread count.
#include "core/relevance_cache.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/record_file.h"
#include "core/kelpie.h"
#include "models/model_store.h"
#include "serve/line_protocol.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

class RelevanceCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    model_ =
        testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_).release();
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("kelpie_relevance_cache_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }
  void TearDown() override { failpoint::DisarmAll(); }

  /// Fresh file path per test so corruption never leaks across tests.
  std::string CachePath(const std::string& name) {
    return (*dir_ / name).string();
  }

  /// A deterministic stand-in for a post-trained mimic: a pure function of
  /// (entity, facts), like the real thing.
  static std::vector<float> FakeMimic(EntityId entity,
                                      const std::vector<Triple>& facts) {
    std::vector<float> mimic(4);
    for (size_t i = 0; i < mimic.size(); ++i) {
      mimic[i] = static_cast<float>(entity) * 10.0f +
                 static_cast<float>(facts.size()) + static_cast<float>(i);
    }
    return mimic;
  }

  static std::vector<Triple> Facts(int n) {
    std::vector<Triple> facts;
    for (int i = 0; i < n; ++i) facts.emplace_back(i, 0, i + 1);
    return facts;
  }

  /// Computes through the cache, counting real computations.
  static std::vector<float> Get(RelevanceCache& cache, EntityId entity,
                                const std::vector<Triple>& facts,
                                std::atomic<int>& computes) {
    return cache.GetOrCompute(entity, facts, [&] {
      computes.fetch_add(1);
      return FakeMimic(entity, facts);
    });
  }

  static Dataset* dataset_;
  static LinkPredictionModel* model_;
  static std::filesystem::path* dir_;
};

Dataset* RelevanceCacheTest::dataset_ = nullptr;
LinkPredictionModel* RelevanceCacheTest::model_ = nullptr;
std::filesystem::path* RelevanceCacheTest::dir_ = nullptr;

// ------------------------------------------------------- single flight ----

TEST_F(RelevanceCacheTest, SingleFlightComputesOnceAcrossThreads) {
  auto cache = RelevanceCache::Open({});  // in-memory
  const std::vector<Triple> facts = Facts(3);
  std::atomic<int> computes{0};
  std::vector<std::vector<float>> results(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back(
        [&, t] { results[t] = Get(*cache, 5, facts, computes); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1)
      << "concurrent lookups of one key must share one computation";
  for (const std::vector<float>& r : results) {
    EXPECT_EQ(r, FakeMimic(5, facts));
  }
  RelevanceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.waits, results.size() - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(RelevanceCacheTest, DistinctFactSetsDoNotAlias) {
  auto cache = RelevanceCache::Open({});
  std::atomic<int> computes{0};
  const std::vector<float> a = Get(*cache, 5, Facts(2), computes);
  const std::vector<float> b = Get(*cache, 5, Facts(3), computes);
  EXPECT_EQ(computes.load(), 2);
  EXPECT_NE(a, b);
  // And repeating either is a hit, not a recompute.
  EXPECT_EQ(Get(*cache, 5, Facts(2), computes), a);
  EXPECT_EQ(computes.load(), 2);
}

TEST_F(RelevanceCacheTest, DivergedResultsAreServedButNeverStored) {
  auto cache = RelevanceCache::Open({});
  std::atomic<int> computes{0};
  const std::vector<Triple> facts = Facts(1);
  std::vector<float> poisoned = cache->GetOrCompute(9, facts, [&] {
    computes.fetch_add(1);
    std::vector<float> mimic = FakeMimic(9, facts);
    mimic[0] = std::numeric_limits<float>::quiet_NaN();
    return mimic;
  });
  EXPECT_TRUE(std::isnan(poisoned[0]));
  // The next caller recomputes: poison must not outlive its request.
  EXPECT_EQ(Get(*cache, 9, facts, computes), FakeMimic(9, facts));
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(Get(*cache, 9, facts, computes), FakeMimic(9, facts));
  EXPECT_EQ(computes.load(), 2) << "the finite result is cached";
}

// ----------------------------------------------------------------- lru ----

TEST_F(RelevanceCacheTest, LruEvictionKeepsBytesBounded) {
  RelevanceCacheOptions options;
  options.max_bytes = 200;  // room for only a few 4-float entries
  auto cache = RelevanceCache::Open(std::move(options));
  std::atomic<int> computes{0};
  for (EntityId e = 0; e < 10; ++e) Get(*cache, e, Facts(1), computes);
  RelevanceCacheStats stats = cache->stats();
  EXPECT_GT(stats.evict_lru, 0u);
  EXPECT_LE(stats.bytes, 200u);
  EXPECT_LT(stats.entries, 10u);
  // The most recent entry survived; the oldest was evicted and recomputes.
  EXPECT_EQ(computes.load(), 10);
  Get(*cache, 9, Facts(1), computes);
  EXPECT_EQ(computes.load(), 10) << "hottest entry must still be cached";
  Get(*cache, 0, Facts(1), computes);
  EXPECT_EQ(computes.load(), 11) << "coldest entry must have been evicted";
}

// ------------------------------------------------------ persistence ----

TEST_F(RelevanceCacheTest, FlushReopenServesHitsWithoutComputing) {
  RelevanceCacheOptions options;
  options.path = CachePath("roundtrip.kelprc");
  options.fingerprint = 42;
  std::atomic<int> computes{0};
  std::vector<std::vector<float>> first;
  {
    auto cache = RelevanceCache::Open(options);
    for (EntityId e = 0; e < 3; ++e) {
      first.push_back(Get(*cache, e, Facts(2), computes));
    }
    ASSERT_TRUE(cache->Flush().ok());
  }
  EXPECT_EQ(computes.load(), 3);
  auto reopened = RelevanceCache::Open(options);
  EXPECT_EQ(reopened->stats().entries, 3u);
  for (EntityId e = 0; e < 3; ++e) {
    std::vector<float> served = reopened->GetOrCompute(e, Facts(2), [&] {
      ADD_FAILURE() << "entity " << e << " must be served from disk";
      return FakeMimic(e, Facts(2));
    });
    EXPECT_EQ(served, first[static_cast<size_t>(e)])
        << "persisted bytes must round-trip exactly";
  }
}

TEST_F(RelevanceCacheTest, MissingFileIsAValidEmptyCache) {
  RelevanceCacheOptions options;
  options.path = CachePath("never_written.kelprc");
  auto cache = RelevanceCache::Open(options);
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(cache->stats().evict_corrupt, 0u);
}

TEST_F(RelevanceCacheTest, GarbageFileLoadsAsEmptyWithoutError) {
  RelevanceCacheOptions options;
  options.path = CachePath("garbage.kelprc");
  {
    std::ofstream out(options.path, std::ios::binary);
    out << "this is not a cache file at all, but it is nonempty";
  }
  auto cache = RelevanceCache::Open(options);
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_GT(cache->stats().evict_corrupt, 0u)
      << "an unreadable non-empty file counts as dropped content";
}

TEST_F(RelevanceCacheTest, PurgeDropsEverythingInMemoryAndOnDisk) {
  RelevanceCacheOptions options;
  options.path = CachePath("purge.kelprc");
  options.fingerprint = 7;
  std::atomic<int> computes{0};
  auto cache = RelevanceCache::Open(options);
  Get(*cache, 1, Facts(1), computes);
  ASSERT_TRUE(cache->Flush().ok());
  ASSERT_TRUE(cache->Purge().ok());
  EXPECT_EQ(cache->stats().entries, 0u);
  Result<RelevanceCacheFileInfo> info = RelevanceCache::Inspect(options.path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->header_ok);
  EXPECT_EQ(info->entries, 0u);
  // And a reopen sees nothing.
  EXPECT_EQ(RelevanceCache::Open(options)->stats().entries, 0u);
}

// ----------------------------------------------- corruption matrix ----
// Every corruption shape recovers to recomputed-but-identical bytes.

TEST_F(RelevanceCacheTest, TornTailTruncatesAndRecomputesIdentically) {
  RelevanceCacheOptions options;
  options.path = CachePath("torn.kelprc");
  options.fingerprint = 42;
  std::atomic<int> computes{0};
  {
    auto cache = RelevanceCache::Open(options);
    for (EntityId e = 0; e < 4; ++e) Get(*cache, e, Facts(2), computes);
    failpoint::Scoped fault("cache.partial_write");
    ASSERT_TRUE(cache->Flush().ok());
  }
  auto reopened = RelevanceCache::Open(options);
  RelevanceCacheStats stats = reopened->stats();
  EXPECT_EQ(stats.torn_tail, 1u);
  EXPECT_EQ(stats.entries, 3u) << "only the torn last frame is lost";
  std::atomic<int> recomputes{0};
  for (EntityId e = 0; e < 4; ++e) {
    EXPECT_EQ(Get(*reopened, e, Facts(2), recomputes), FakeMimic(e, Facts(2)));
  }
  EXPECT_EQ(recomputes.load(), 1) << "exactly the torn entry recomputes";
}

TEST_F(RelevanceCacheTest, BitFlipEvictsOnlyTheCorruptEntry) {
  RelevanceCacheOptions options;
  options.path = CachePath("bitflip.kelprc");
  options.fingerprint = 42;
  std::atomic<int> computes{0};
  {
    auto cache = RelevanceCache::Open(options);
    for (EntityId e = 0; e < 4; ++e) Get(*cache, e, Facts(2), computes);
    failpoint::Scoped fault("cache.bit_flip");
    ASSERT_TRUE(cache->Flush().ok());
  }
  auto reopened = RelevanceCache::Open(options);
  RelevanceCacheStats stats = reopened->stats();
  EXPECT_EQ(stats.evict_corrupt, 1u);
  EXPECT_EQ(stats.entries, 3u);
  std::atomic<int> recomputes{0};
  for (EntityId e = 0; e < 4; ++e) {
    EXPECT_EQ(Get(*reopened, e, Facts(2), recomputes), FakeMimic(e, Facts(2)));
  }
  EXPECT_EQ(recomputes.load(), 1);
}

TEST_F(RelevanceCacheTest, StaleFingerprintInvalidatesWholesale) {
  RelevanceCacheOptions options;
  options.path = CachePath("stale.kelprc");
  options.fingerprint = 42;
  std::atomic<int> computes{0};
  {
    auto cache = RelevanceCache::Open(options);
    for (EntityId e = 0; e < 3; ++e) Get(*cache, e, Facts(2), computes);
    failpoint::Scoped fault("cache.stale_fingerprint");
    ASSERT_TRUE(cache->Flush().ok());
  }
  // The file is structurally valid — just written by "another model".
  Result<RelevanceCacheFileInfo> info = RelevanceCache::Inspect(options.path);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->header_ok);
  EXPECT_EQ(info->entries, 3u);
  EXPECT_NE(info->fingerprint, 42u);

  auto reopened = RelevanceCache::Open(options);
  RelevanceCacheStats stats = reopened->stats();
  EXPECT_GT(stats.evict_fingerprint, 0u);
  EXPECT_EQ(stats.entries, 0u) << "wrong-model entries must never be served";
  std::atomic<int> recomputes{0};
  for (EntityId e = 0; e < 3; ++e) {
    EXPECT_EQ(Get(*reopened, e, Facts(2), recomputes), FakeMimic(e, Facts(2)));
  }
  EXPECT_EQ(recomputes.load(), 3);
}

TEST_F(RelevanceCacheTest, CrashedWriterKeepsThePreviousGeneration) {
  RelevanceCacheOptions options;
  options.path = CachePath("crash.kelprc");
  options.fingerprint = 42;
  std::atomic<int> computes{0};
  auto cache = RelevanceCache::Open(options);
  Get(*cache, 1, Facts(2), computes);
  ASSERT_TRUE(cache->Flush().ok());
  Get(*cache, 2, Facts(2), computes);
  {
    // The atomic-write layer crashes mid-write: Flush fails, and the
    // temp+rename discipline means the previous file is untouched.
    failpoint::Scoped fault("atomic_file.partial_write");
    EXPECT_FALSE(cache->Flush().ok());
  }
  auto reopened = RelevanceCache::Open(options);
  EXPECT_EQ(reopened->stats().entries, 1u)
      << "the first generation survives a crashed rewrite";
  std::atomic<int> recomputes{0};
  EXPECT_EQ(Get(*reopened, 1, Facts(2), recomputes), FakeMimic(1, Facts(2)));
  EXPECT_EQ(recomputes.load(), 0);
}

// ----------------------------------------------------- fingerprint ----

TEST_F(RelevanceCacheTest, FingerprintIsStableAcrossSaveLoad) {
  const uint64_t fp = ComputeModelFingerprint(*model_, 1234);
  EXPECT_EQ(fp, ComputeModelFingerprint(*model_, 1234));
  const std::string path = CachePath("fp_model.bin");
  ASSERT_TRUE(SaveModel(*model_, ModelKind::kComplEx, path).ok());
  Result<std::unique_ptr<LinkPredictionModel>> loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ComputeModelFingerprint(**loaded, 1234), fp)
      << "a pool instance loaded from file must share the CLI fingerprint";
}

TEST_F(RelevanceCacheTest, FingerprintSeparatesSeedsAndParameters) {
  const uint64_t fp = ComputeModelFingerprint(*model_, 1234);
  EXPECT_NE(ComputeModelFingerprint(*model_, 1235), fp)
      << "engine seed feeds the post-training RNG: different mimics";
  auto other = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_,
                                           /*seed=*/13);
  EXPECT_NE(ComputeModelFingerprint(*other, 1234), fp)
      << "different learned parameters: different mimics";
}

/// The fingerprint as computed before it streamed: the parameters copied
/// into a string, then one Crc32c over the copy. Kept as the reference the
/// streamed computation must reproduce, so that existing cache files keep
/// opening as hits.
uint64_t CopyingModelFingerprint(const LinkPredictionModel& model,
                                 uint64_t engine_seed) {
  std::ostringstream params;
  const Status saved = model.SaveParameters(params);
  const std::string blob = params.str();
  auto mix_f = [](uint64_t h, float v) {
    return Mix64(h ^ std::bit_cast<uint32_t>(v));
  };
  uint64_t h = Mix64(0xf1c6e12b00c5a11eULL);
  for (char c : std::string(model.Name())) {
    h = Mix64(h ^ static_cast<uint8_t>(c));
  }
  h = Mix64(h ^ model.num_entities());
  h = Mix64(h ^ model.num_relations());
  h = Mix64(h ^ model.entity_dim());
  const TrainConfig& cfg = model.config();
  h = Mix64(h ^ cfg.dim);
  h = Mix64(h ^ cfg.post_training_epochs);
  h = mix_f(h, cfg.post_training_lr);
  h = mix_f(h, cfg.learning_rate);
  h = mix_f(h, cfg.regularization);
  h = mix_f(h, cfg.margin);
  h = Mix64(h ^ static_cast<uint64_t>(
                    static_cast<uint32_t>(cfg.negatives_per_positive)));
  h = mix_f(h, cfg.conv_lr);
  h = mix_f(h, cfg.label_smoothing);
  h = mix_f(h, cfg.input_dropout);
  h = mix_f(h, cfg.feature_dropout);
  h = mix_f(h, cfg.hidden_dropout);
  h = Mix64(h ^ (saved.ok() ? Crc32c(blob) : 0xdeadULL));
  h = Mix64(h ^ blob.size());
  h = Mix64(h ^ engine_seed);
  return h;
}

TEST(ModelFingerprintTest, StreamedFingerprintEqualsTheCopyingOne) {
  const Dataset dataset = testing_util::MakeToyDataset();
  for (ModelKind kind : {ModelKind::kTransE, ModelKind::kRotatE,
                         ModelKind::kComplEx, ModelKind::kDistMult,
                         ModelKind::kConvE}) {
    TrainConfig config = testing_util::FastConfig(kind);
    config.epochs = 2;
    auto model = CreateModel(kind, dataset, config);
    Rng rng(11);
    ASSERT_TRUE(model->Train(dataset, rng).ok());
    for (uint64_t seed : {uint64_t{7}, uint64_t{1234}}) {
      EXPECT_EQ(ComputeModelFingerprint(*model, seed),
                CopyingModelFingerprint(*model, seed))
          << model->Name() << " seed " << seed;
    }
  }
}

// -------------------------------------------- golden byte identity ----
// The acceptance test: one-shot explanations rendered in the serve wire
// format, with the cache off / cold / warm-reopened / corrupted-then-
// recovered, at 1 and 4 extraction threads — all byte-identical.

class RelevanceCacheGoldenTest : public RelevanceCacheTest {
 protected:
  /// One fresh one-shot run (new Kelpie, cold engine caches), optionally
  /// backed by a persistent relevance cache.
  static std::string RunExplain(std::shared_ptr<RelevanceCache> cache,
                                size_t threads, bool sufficient) {
    KelpieOptions options;
    options.engine.conversion_set_size = 4;
    options.engine.num_threads = threads;
    options.engine.relevance_cache = std::move(cache);
    Kelpie kelpie(*model_, *dataset_, options);
    const Triple prediction = Prediction();
    if (sufficient) {
      std::vector<EntityId> converted;
      Explanation x = kelpie.ExplainSufficient(
          prediction, PredictionTarget::kTail, &converted);
      return serve::ExplainResponseLine(7, x, converted, *dataset_);
    }
    Explanation x =
        kelpie.ExplainNecessary(prediction, PredictionTarget::kTail);
    return serve::ExplainResponseLine(7, x, {}, *dataset_);
  }

  static Triple Prediction() {
    const Dataset& d = *dataset_;
    return Triple(d.entities().Find("City_1").value(),
                  d.relations().Find("located_in").value(),
                  d.entities().Find("Country_1").value());
  }
};

TEST_F(RelevanceCacheGoldenTest, ExplanationsAreByteIdenticalInEveryMode) {
  for (const bool sufficient : {false, true}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE((sufficient ? "sufficient" : "necessary") +
                   std::string(" threads=") + std::to_string(threads));
      RelevanceCacheOptions options;
      options.path = CachePath("golden_" + std::to_string(sufficient) + "_" +
                               std::to_string(threads) + ".kelprc");
      options.fingerprint = ComputeModelFingerprint(*model_, 1234);

      const std::string baseline = RunExplain(nullptr, threads, sufficient);

      auto cold = RelevanceCache::Open(options);
      EXPECT_EQ(RunExplain(cold, threads, sufficient), baseline)
          << "cold cache must not change a single byte";
      EXPECT_GT(cold->stats().misses, 0u) << "the cache must have been used";
      ASSERT_TRUE(cold->Flush().ok());

      auto warm = RelevanceCache::Open(options);
      ASSERT_GT(warm->stats().entries, 0u);
      EXPECT_EQ(RunExplain(warm, threads, sufficient), baseline)
          << "warm cache must serve bitwise-identical mimics";
      RelevanceCacheStats warm_stats = warm->stats();
      EXPECT_GT(warm_stats.hits, 0u);
      EXPECT_EQ(warm_stats.misses, 0u)
          << "a repeated extraction is fully served from the cache";
      {
        failpoint::Scoped fault("cache.bit_flip");
        ASSERT_TRUE(warm->Flush().ok());
      }

      auto recovered = RelevanceCache::Open(options);
      EXPECT_EQ(recovered->stats().evict_corrupt, 1u);
      EXPECT_EQ(RunExplain(recovered, threads, sufficient), baseline)
          << "a corrupted entry must recompute to the same bytes";
    }
  }
}

TEST_F(RelevanceCacheGoldenTest, WrongLengthMimicsAreRecomputedNotRead) {
  RelevanceCacheOptions options;
  options.path = CachePath("wrong_length.kelprc");
  options.fingerprint = ComputeModelFingerprint(*model_, 1234);
  const std::string baseline = RunExplain(nullptr, 1, false);
  {
    auto cold = RelevanceCache::Open(options);
    ASSERT_EQ(RunExplain(cold, 1, false), baseline);
    ASSERT_TRUE(cold->Flush().ok());
  }

  // Rewrite every entry with a one-float mimic through the record-file
  // writer: the header fingerprint matches and every frame verifies, only
  // the stored vector is shorter than entity_dim().
  Result<std::string> bytes = ReadWholeFile(options.path);
  ASSERT_TRUE(bytes.ok());
  uint32_t version = 0;
  std::memcpy(&version, bytes->data() + 8, sizeof(version));
  record_file::Reader reader({std::string_view(*bytes).substr(0, 8), version},
                             *bytes);
  ASSERT_EQ(reader.header(), record_file::HeaderOutcome::kOk);
  std::string image = bytes->substr(0, record_file::kHeaderSize);
  record_file::Frame frame;
  size_t rewritten = 0;
  while (reader.Next(frame)) {
    ASSERT_EQ(frame.outcome, record_file::FrameOutcome::kOk);
    // i32 entity | u32 num_facts | u32 dim | facts | dim floats
    uint32_t num_facts = 0;
    std::memcpy(&num_facts, frame.payload.data() + 4, sizeof(num_facts));
    std::string payload(frame.payload.substr(0, 12 + 12 * num_facts));
    const uint32_t one = 1;
    std::memcpy(payload.data() + 8, &one, sizeof(one));
    const float value = 0.25f;
    payload.append(reinterpret_cast<const char*>(&value), sizeof(value));
    record_file::AppendFrame(image, frame.tag, payload);
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);
  ASSERT_TRUE(WriteFileAtomic(options.path, image).ok());

  auto wrong = RelevanceCache::Open(options);
  ASSERT_EQ(wrong->stats().entries, rewritten);
  EXPECT_EQ(RunExplain(wrong, 1, false), baseline)
      << "a wrong-length cached mimic must be recomputed, never read";
  EXPECT_GT(wrong->stats().hits, 0u) << "the short vectors were served";
}

}  // namespace
}  // namespace kelpie
