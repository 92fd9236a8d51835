// Incremental KG update tests (DESIGN.md §16): delta parsing and
// validation, deterministic order-independent row repair, crash-safe
// journal resume, the last-triple-removal edge case, relevance-cache
// reconciliation, and agreement with a from-scratch retrain on unaffected
// predictions.
#include "xp/update.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kelpie.h"
#include "core/relevance_cache.h"
#include "models/factory.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

using xp::AffectedEntities;
using xp::ApplyKgUpdate;
using xp::KgDelta;
using xp::ParseKgDelta;
using xp::UpdateOptions;
using xp::UpdateReport;

std::string ParamsBytes(const LinkPredictionModel& model) {
  std::ostringstream out;
  Status s = model.SaveParameters(out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(out).str();
}

/// Deep copy through the parameter serialization (models are not
/// copyable): same config, same bytes.
std::unique_ptr<LinkPredictionModel> CloneModel(
    const LinkPredictionModel& model, ModelKind kind, const Dataset& dataset,
    const TrainConfig& config) {
  auto clone = CreateModel(kind, dataset, config);
  std::stringstream buffer;
  EXPECT_TRUE(model.SaveParameters(buffer).ok());
  EXPECT_TRUE(clone->LoadParameters(buffer).ok());
  return clone;
}

bool SpanBytesEqual(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class UpdateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(testing_util::MakeToyDataset());
    config_ = new TrainConfig(testing_util::FastConfig(ModelKind::kTransE));
    base_ = TrainBase().release();
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("kelpie_update_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete base_;
    base_ = nullptr;
    delete config_;
    config_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::unique_ptr<LinkPredictionModel> TrainBase() {
    auto model = CreateModel(ModelKind::kTransE, *dataset_, *config_);
    Rng rng(11);
    EXPECT_TRUE(model->Train(*dataset_, rng).ok());
    return model;
  }

  static std::unique_ptr<LinkPredictionModel> Clone() {
    return CloneModel(*base_, ModelKind::kTransE, *dataset_, *config_);
  }

  static std::string TempPath(const std::string& name) {
    return (*dir_ / name).string();
  }

  /// remove one born_in fact, add a different city for the same person.
  static KgDelta ToyDelta() {
    const EntityId person = *dataset_->entities().Find("Person_0");
    const EntityId old_city = *dataset_->entities().Find("City_0");
    const EntityId new_city = *dataset_->entities().Find("City_5");
    const RelationId born = *dataset_->relations().Find("born_in");
    KgDelta delta;
    delta.remove.push_back(Triple(person, born, old_city));
    delta.add.push_back(Triple(person, born, new_city));
    return delta;
  }

  static Dataset* dataset_;
  static TrainConfig* config_;
  static LinkPredictionModel* base_;
  static std::filesystem::path* dir_;
};

Dataset* UpdateTest::dataset_ = nullptr;
TrainConfig* UpdateTest::config_ = nullptr;
LinkPredictionModel* UpdateTest::base_ = nullptr;
std::filesystem::path* UpdateTest::dir_ = nullptr;

TEST_F(UpdateTest, ParseAcceptsOpsAliasesCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "add\tPerson_0\tborn_in\tCity_5\n"
      "+\tPerson_1\tborn_in\tCity_5\n"
      "remove\tPerson_0\tborn_in\tCity_0\n"
      "-\tPerson_1\tborn_in\tCity_1\r\n";
  Result<KgDelta> delta = ParseKgDelta(text, *dataset_);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->add.size(), 2u);
  EXPECT_EQ(delta->remove.size(), 2u);
  const std::vector<EntityId> affected = AffectedEntities(*delta);
  EXPECT_EQ(affected.size(), 5u);  // Person_0, Person_1, City_0/1/5
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));
}

TEST_F(UpdateTest, ParseRejectsMalformedLinesWithLineNumbers) {
  auto expect_invalid = [&](const std::string& text,
                            const std::string& fragment) {
    Result<KgDelta> delta = ParseKgDelta(text, *dataset_, "delta.tsv");
    ASSERT_FALSE(delta.ok()) << text;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(delta.status().ToString().find(fragment), std::string::npos)
        << delta.status().ToString();
  };
  expect_invalid("add\tPerson_0\tborn_in\n", "delta.tsv:1");
  expect_invalid("\n\nfrob\tPerson_0\tborn_in\tCity_0\n", "delta.tsv:3");
  expect_invalid("add\tNoSuchEntity\tborn_in\tCity_0\n", "NoSuchEntity");
  expect_invalid("add\tPerson_0\tno_such_relation\tCity_0\n",
                 "no_such_relation");
}

TEST_F(UpdateTest, ValidationRejectsInconsistentDeltas) {
  auto model = Clone();
  auto run = [&](const KgDelta& delta) {
    return ApplyKgUpdate(*model, *dataset_, delta, UpdateOptions{});
  };
  const RelationId born = *dataset_->relations().Find("born_in");
  const EntityId p0 = *dataset_->entities().Find("Person_0");
  const EntityId c0 = *dataset_->entities().Find("City_0");
  const EntityId c5 = *dataset_->entities().Find("City_5");

  KgDelta remove_missing;
  remove_missing.remove.push_back(Triple(p0, born, c5));
  EXPECT_EQ(run(remove_missing).status().code(),
            StatusCode::kInvalidArgument);

  KgDelta add_existing;
  add_existing.add.push_back(Triple(p0, born, c0));
  EXPECT_EQ(run(add_existing).status().code(), StatusCode::kInvalidArgument);

  KgDelta duplicate;
  duplicate.add.push_back(Triple(p0, born, c5));
  duplicate.add.push_back(Triple(p0, born, c5));
  EXPECT_EQ(run(duplicate).status().code(), StatusCode::kInvalidArgument);

  KgDelta both_sides;
  both_sides.add.push_back(Triple(p0, born, c5));
  both_sides.remove.push_back(Triple(p0, born, c5));
  EXPECT_EQ(run(both_sides).status().code(), StatusCode::kInvalidArgument);

  // Nothing above may have touched the parameters.
  EXPECT_EQ(ParamsBytes(*model), ParamsBytes(*base_));
}

TEST_F(UpdateTest, UpdateIsDeterministicAndTouchesOnlyAffectedRows) {
  const KgDelta delta = ToyDelta();
  auto a = Clone();
  auto b = Clone();
  UpdateOptions options;
  Result<UpdateReport> ra = ApplyKgUpdate(*a, *dataset_, delta, options);
  Result<UpdateReport> rb = ApplyKgUpdate(*b, *dataset_, delta, options);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ParamsBytes(*a), ParamsBytes(*b));
  EXPECT_TRUE(ra->params_changed);
  EXPECT_EQ(ra->rows_recomputed, ra->affected.size());
  EXPECT_NE(ra->fingerprint_before, ra->fingerprint_after);

  // Rows of entities outside the delta are bitwise untouched.
  std::vector<bool> affected(dataset_->num_entities(), false);
  for (EntityId e : ra->affected) affected[static_cast<size_t>(e)] = true;
  size_t changed = 0;
  for (size_t e = 0; e < dataset_->num_entities(); ++e) {
    const auto id = static_cast<EntityId>(e);
    if (affected[e]) {
      changed += SpanBytesEqual(a->EntityEmbedding(id),
                                base_->EntityEmbedding(id))
                     ? 0
                     : 1;
    } else {
      EXPECT_TRUE(SpanBytesEqual(a->EntityEmbedding(id),
                                 base_->EntityEmbedding(id)))
          << "unaffected entity " << e << " was modified";
    }
  }
  EXPECT_GT(changed, 0u);
}

TEST_F(UpdateTest, JournalResumeReplaysRowsByteIdentically) {
  const KgDelta delta = ToyDelta();
  const std::string journal = TempPath("resume.jnl");

  auto first = Clone();
  UpdateOptions options;
  options.journal_path = journal;
  Result<UpdateReport> r1 = ApplyKgUpdate(*first, *dataset_, delta, options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->rows_recomputed, r1->affected.size());

  // A second process picking up the journal replays every row instead of
  // recomputing, and lands on the same bytes.
  auto second = Clone();
  options.resume = true;
  Result<UpdateReport> r2 = ApplyKgUpdate(*second, *dataset_, delta, options);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->rows_replayed, r2->affected.size());
  EXPECT_EQ(r2->rows_recomputed, 0u);
  EXPECT_EQ(ParamsBytes(*first), ParamsBytes(*second));
}

TEST_F(UpdateTest, TornJournalTailIsDroppedNotTrusted) {
  const KgDelta delta = ToyDelta();
  const std::string journal = TempPath("torn.jnl");
  auto first = Clone();
  UpdateOptions options;
  options.journal_path = journal;
  ASSERT_TRUE(ApplyKgUpdate(*first, *dataset_, delta, options).ok());

  // Simulate a crash mid-append: chop bytes off the last frame.
  std::string bytes;
  {
    std::ifstream in(journal, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 7));
  }

  auto second = Clone();
  options.resume = true;
  Result<UpdateReport> r = ApplyKgUpdate(*second, *dataset_, delta, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LT(r->rows_replayed, r->affected.size());
  EXPECT_EQ(r->rows_replayed + r->rows_recomputed, r->affected.size());
  EXPECT_EQ(ParamsBytes(*first), ParamsBytes(*second));
}

TEST_F(UpdateTest, JournalFromDifferentRunFailsCleanly) {
  const KgDelta delta = ToyDelta();
  const std::string journal = TempPath("foreign.jnl");
  auto first = Clone();
  UpdateOptions options;
  options.journal_path = journal;
  ASSERT_TRUE(ApplyKgUpdate(*first, *dataset_, delta, options).ok());

  // Same journal, different seed => different run id: refuse, don't mix.
  auto second = Clone();
  options.resume = true;
  options.seed = 8675309;
  Result<UpdateReport> r = ApplyKgUpdate(*second, *dataset_, delta, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ParamsBytes(*second), ParamsBytes(*base_));
}

TEST_F(UpdateTest, CancelledUpdateLeavesModelUntouched) {
  const KgDelta delta = ToyDelta();
  auto model = Clone();
  UpdateOptions options;
  options.cancel.RequestCancel();
  Result<UpdateReport> r = ApplyKgUpdate(*model, *dataset_, delta, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ParamsBytes(*model), ParamsBytes(*base_));
}

TEST(UpdateEdgeTest, RemovingAnEntitysLastTripleIsolatesItUnchanged) {
  // A four-entity graph where A-r-B is the only fact touching A and B:
  // removing it leaves both isolated, so their rows stay bitwise put and
  // the parameter fingerprint does not move.
  Dictionary entities, relations;
  const EntityId a = entities.GetOrAdd("A");
  const EntityId b = entities.GetOrAdd("B");
  const EntityId c = entities.GetOrAdd("C");
  const EntityId d = entities.GetOrAdd("D");
  const RelationId r = relations.GetOrAdd("r");
  std::vector<Triple> train = {Triple(a, r, b), Triple(c, r, d),
                               Triple(d, r, c)};
  Dataset tiny("tiny", std::move(entities), std::move(relations),
               std::move(train), {}, {Triple(c, r, d)});

  TrainConfig config = testing_util::FastConfig(ModelKind::kTransE);
  config.epochs = 5;
  auto model = CreateModel(ModelKind::kTransE, tiny, config);
  Rng rng(3);
  ASSERT_TRUE(model->Train(tiny, rng).ok());
  const std::string before = ParamsBytes(*model);

  KgDelta delta;
  delta.remove.push_back(Triple(a, r, b));
  Result<UpdateReport> report =
      ApplyKgUpdate(*model, tiny, delta, UpdateOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->affected, (std::vector<EntityId>{a, b}));
  EXPECT_EQ(report->isolated, (std::vector<EntityId>{a, b}));
  EXPECT_FALSE(report->params_changed);
  EXPECT_EQ(report->fingerprint_before, report->fingerprint_after);
  EXPECT_EQ(ParamsBytes(*model), before);
}

TEST(UpdatePostTrainTest, PostTrainingReadsNoDatasetFacts) {
  // ApplyKgUpdate post-trains against the pre-update dataset with the
  // updated fact lists. That is only sound if a mimic depends on the
  // dataset's entity count alone: against a dataset with the same entities
  // and different facts, every model must return the same bytes, cold and
  // warm.
  const Dataset dataset = testing_util::MakeToyDataset();
  const std::vector<Triple>& train = dataset.train();
  std::vector<Triple> removed(train.begin(), train.begin() + train.size() / 2);
  const Dataset other = dataset.WithModifiedTraining(removed, dataset.test());
  ASSERT_EQ(other.num_entities(), dataset.num_entities());
  const EntityId entity = *dataset.entities().Find("City_1");
  const std::vector<Triple> facts = dataset.train_graph().FactsOf(entity);
  ASSERT_NE(facts, other.train_graph().FactsOf(entity));
  for (ModelKind kind : {ModelKind::kTransE, ModelKind::kRotatE,
                         ModelKind::kComplEx, ModelKind::kDistMult,
                         ModelKind::kConvE}) {
    TrainConfig config = testing_util::FastConfig(kind);
    config.epochs = 2;
    auto model = CreateModel(kind, dataset, config);
    Rng train_rng(11);
    ASSERT_TRUE(model->Train(dataset, train_rng).ok());
    for (const bool warm : {false, true}) {
      const std::span<const float> init =
          warm ? model->EntityEmbedding(entity) : std::span<const float>();
      Rng rng_a(5);
      Rng rng_b(5);
      const std::vector<float> a =
          model->PostTrainMimic(dataset, entity, facts, rng_a, init);
      const std::vector<float> b =
          model->PostTrainMimic(other, entity, facts, rng_b, init);
      EXPECT_TRUE(SpanBytesEqual(a, b))
          << model->Name() << (warm ? " warm" : " cold");
    }
  }
}

TEST(UpdateCacheTest, PurgeEntitiesDropsExactlyTheAffectedKeys) {
  Dataset dataset = testing_util::MakeToyDataset();
  RelevanceCacheOptions options;  // in-memory
  options.fingerprint = 42;
  auto cache = RelevanceCache::Open(options);

  const EntityId p0 = *dataset.entities().Find("Person_0");
  const EntityId p1 = *dataset.entities().Find("Person_1");
  const EntityId p2 = *dataset.entities().Find("Person_2");
  const auto facts_of = [&](EntityId e) {
    return dataset.train_graph().FactsOf(e);
  };
  const auto compute = [] { return std::vector<float>(4, 1.0f); };
  cache->GetOrCompute(p0, facts_of(p0), compute);
  cache->GetOrCompute(p1, facts_of(p1), compute);
  cache->GetOrCompute(p2, facts_of(p2), compute);
  ASSERT_EQ(cache->stats().entries, 3u);

  // Purging p0 drops its entry; p1/p2 mimics don't mention p0 (people only
  // relate to cities/countries), so they survive.
  EXPECT_EQ(cache->PurgeEntities({p0}), 1u);
  EXPECT_EQ(cache->stats().entries, 2u);

  // Purging a city shared by several fact sets drops every entry whose
  // stored facts mention it — dead keys under any delta touching the city.
  const EntityId city1 = *dataset.entities().Find("City_1");
  size_t dropped = cache->PurgeEntities({city1});
  EXPECT_EQ(dropped, 1u);  // Person_1 was born in City_1
  EXPECT_EQ(cache->stats().entries, 1u);

  EXPECT_EQ(cache->PurgeEntities({}), 0u);
}

TEST(UpdateParityTest, MatchesFromScratchRetrainOnUnaffectedPredictions) {
  // The acceptance scenario: apply a delta, then explain a prediction that
  // has nothing to do with the delta. The incrementally updated model must
  // produce the same explanation facts as a model retrained from scratch
  // on the updated graph — the discrete explanation output of unaffected
  // predictions is stable under incremental maintenance.
  Dataset dataset = testing_util::MakeToyDataset();
  const EntityId p0 = *dataset.entities().Find("Person_0");
  const EntityId c0 = *dataset.entities().Find("City_0");
  const EntityId c5 = *dataset.entities().Find("City_5");
  const RelationId born = *dataset.relations().Find("born_in");
  KgDelta delta;
  delta.remove.push_back(Triple(p0, born, c0));
  delta.add.push_back(Triple(p0, born, c5));
  const Dataset updated = dataset.WithModifiedTraining(delta.remove, delta.add);

  TrainConfig config = testing_util::FastConfig(ModelKind::kTransE);
  auto incremental = CreateModel(ModelKind::kTransE, dataset, config);
  {
    Rng rng(11);
    ASSERT_TRUE(incremental->Train(dataset, rng).ok());
  }
  Result<UpdateReport> report =
      ApplyKgUpdate(*incremental, dataset, delta, UpdateOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto retrained = CreateModel(ModelKind::kTransE, updated, config);
  {
    Rng rng(11);
    ASSERT_TRUE(retrained->Train(updated, rng).ok());
  }

  // An unaffected prediction: a test-split nationality fact of a person
  // the delta never mentions (Person_3 is the first test person).
  Triple prediction = updated.test().front();
  ASSERT_NE(prediction.head, p0);
  KelpieOptions options;
  Kelpie kelpie_incremental(*incremental, updated, options);
  Kelpie kelpie_retrained(*retrained, updated, options);
  Explanation xi =
      kelpie_incremental.ExplainNecessary(prediction, PredictionTarget::kTail);
  Explanation xr =
      kelpie_retrained.ExplainNecessary(prediction, PredictionTarget::kTail);
  ASSERT_FALSE(xi.empty());
  ASSERT_FALSE(xr.empty());
  EXPECT_EQ(xi.facts, xr.facts);
}

}  // namespace
}  // namespace kelpie
