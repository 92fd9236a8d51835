#include "kgraph/dataset.h"

#include <string>

#include <gtest/gtest.h>

#include "math/rng.h"

namespace kelpie {
namespace {

Dataset MakeDataset() {
  Dictionary entities, relations;
  EntityId obama = entities.GetOrAdd("Barack_Obama");
  EntityId honolulu = entities.GetOrAdd("Honolulu");
  EntityId usa = entities.GetOrAdd("USA");
  EntityId xi = entities.GetOrAdd("Xi_Jinping");
  RelationId born = relations.GetOrAdd("born_in");
  RelationId located = relations.GetOrAdd("located_in");
  RelationId nationality = relations.GetOrAdd("nationality");
  std::vector<Triple> train{
      Triple(obama, born, honolulu),
      Triple(honolulu, located, usa),
      Triple(xi, born, honolulu),
  };
  std::vector<Triple> valid{Triple(xi, nationality, usa)};
  std::vector<Triple> test{Triple(obama, nationality, usa)};
  return Dataset("toy", std::move(entities), std::move(relations),
                 std::move(train), std::move(valid), std::move(test));
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d = MakeDataset();
  EXPECT_EQ(d.name(), "toy");
  EXPECT_EQ(d.num_entities(), 4u);
  EXPECT_EQ(d.num_relations(), 3u);
  EXPECT_EQ(d.train().size(), 3u);
  EXPECT_EQ(d.valid().size(), 1u);
  EXPECT_EQ(d.test().size(), 1u);
}

TEST(DatasetTest, TrainGraphOnlyIndexesTrainSplit) {
  Dataset d = MakeDataset();
  EXPECT_EQ(d.train_graph().num_triples(), 3u);
  EXPECT_TRUE(d.train_graph().Contains(Triple(0, 0, 1)));
  EXPECT_FALSE(d.train_graph().Contains(Triple(0, 2, 2)));  // test fact
}

TEST(DatasetTest, IsKnownCoversAllSplits) {
  Dataset d = MakeDataset();
  EXPECT_TRUE(d.IsKnown(Triple(0, 0, 1)));  // train
  EXPECT_TRUE(d.IsKnown(Triple(3, 2, 2)));  // valid
  EXPECT_TRUE(d.IsKnown(Triple(0, 2, 2)));  // test
  EXPECT_FALSE(d.IsKnown(Triple(3, 2, 1)));
}

TEST(DatasetTest, KnownTailsAggregatesSplits) {
  Dataset d = MakeDataset();
  // born_in tails of Obama.
  const auto& tails = d.KnownTails(0, 0);
  EXPECT_EQ(tails.size(), 1u);
  EXPECT_TRUE(tails.count(1));
  // nationality of Obama is a test fact — still known.
  EXPECT_TRUE(d.KnownTails(0, 2).count(2));
  // Unknown pair gives the empty set.
  EXPECT_TRUE(d.KnownTails(2, 0).empty());
}

TEST(DatasetTest, KnownHeadsAggregatesSplits) {
  Dataset d = MakeDataset();
  // Heads born in Honolulu: Obama and Xi.
  const auto& heads = d.KnownHeads(0, 1);
  EXPECT_EQ(heads.size(), 2u);
  EXPECT_TRUE(heads.count(0));
  EXPECT_TRUE(heads.count(3));
}

TEST(DatasetTest, TripleToStringUsesNames) {
  Dataset d = MakeDataset();
  EXPECT_EQ(d.TripleToString(Triple(0, 0, 1)),
            "<Barack_Obama, born_in, Honolulu>");
}

TEST(DatasetTest, WithModifiedTrainingRemoves) {
  Dataset d = MakeDataset();
  Dataset d2 = d.WithModifiedTraining({Triple(0, 0, 1)}, {});
  EXPECT_EQ(d2.train().size(), 2u);
  EXPECT_FALSE(d2.train_graph().Contains(Triple(0, 0, 1)));
  // Original unchanged.
  EXPECT_TRUE(d.train_graph().Contains(Triple(0, 0, 1)));
  // Valid/test preserved.
  EXPECT_EQ(d2.valid().size(), 1u);
  EXPECT_EQ(d2.test().size(), 1u);
}

TEST(DatasetTest, WithModifiedTrainingAddsAndDeduplicates) {
  Dataset d = MakeDataset();
  Triple added(3, 2, 2);
  Dataset d2 = d.WithModifiedTraining({}, {added, added, Triple(0, 0, 1)});
  // 'added' once; the duplicate of an existing train fact is dropped.
  EXPECT_EQ(d2.train().size(), 4u);
  EXPECT_TRUE(d2.train_graph().Contains(added));
}

TEST(DatasetTest, WithModifiedTrainingRemovalWinsOverAddition) {
  Dataset d = MakeDataset();
  Triple t(0, 0, 1);
  Dataset d2 = d.WithModifiedTraining({t}, {t});
  EXPECT_FALSE(d2.train_graph().Contains(t));
}

/// A dataset over `num_entities` entities named e<i> and `num_relations`
/// relations, with the given training split and empty valid/test splits.
Dataset MakeIdDataset(size_t num_entities, size_t num_relations,
                      std::vector<Triple> train) {
  Dictionary entities, relations;
  for (size_t i = 0; i < num_entities; ++i) {
    entities.GetOrAdd("e" + std::to_string(i));
  }
  for (size_t i = 0; i < num_relations; ++i) {
    relations.GetOrAdd("r" + std::to_string(i));
  }
  return Dataset("ids", std::move(entities), std::move(relations),
                 std::move(train), {}, {});
}

/// ModifiedTrainingFactsOf(e) must list exactly what the rebuilt graph's
/// FactsOf(e) lists, in the same order, for every entity.
void ExpectMatchesRebuild(const Dataset& d, const std::vector<Triple>& removed,
                          const std::vector<Triple>& added) {
  const Dataset rebuilt = d.WithModifiedTraining(removed, added);
  for (size_t e = 0; e < d.num_entities(); ++e) {
    const EntityId id = static_cast<EntityId>(e);
    EXPECT_EQ(d.ModifiedTrainingFactsOf(id, removed, added),
              rebuilt.train_graph().FactsOf(id))
        << "entity " << e;
  }
}

Triple RandomTriple(Rng& rng, size_t num_entities, size_t num_relations) {
  return Triple(static_cast<EntityId>(rng.UniformUint64(num_entities)),
                static_cast<RelationId>(rng.UniformUint64(num_relations)),
                static_cast<EntityId>(rng.UniformUint64(num_entities)));
}

TEST(DatasetTest, ModifiedTrainingFactsOfMatchesRebuildOnRandomGraphs) {
  constexpr size_t kEntities = 40;
  constexpr size_t kRelations = 3;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    std::vector<Triple> train;
    for (size_t i = 0; i < 150; ++i) {
      train.push_back(RandomTriple(rng, kEntities, kRelations));
    }
    // Duplicated training triples: re-insert copies at random positions.
    for (size_t i = 0; i < 20; ++i) {
      const Triple copy = train[rng.UniformUint64(train.size())];
      train.insert(train.begin() + static_cast<std::ptrdiff_t>(
                                       rng.UniformUint64(train.size() + 1)),
                   copy);
    }
    const Dataset d = MakeIdDataset(kEntities, kRelations, train);
    std::vector<Triple> removed;
    for (size_t i = 0; i < 12; ++i) {
      removed.push_back(train[rng.UniformUint64(train.size())]);
    }
    std::vector<Triple> added;
    for (size_t i = 0; i < 12; ++i) {
      added.push_back(RandomTriple(rng, kEntities, kRelations));
    }
    const EntityId loop = static_cast<EntityId>(rng.UniformUint64(kEntities));
    added.push_back(Triple(loop, 0, loop));  // self-loop
    added.push_back(added.front());          // duplicate add
    added.push_back(train.front());          // already present
    added.push_back(removed.front());        // removal wins
    ExpectMatchesRebuild(d, removed, added);
  }
}

TEST(DatasetTest, ModifiedTrainingFactsOfIsEmptyForAnIsolatedEntity) {
  // e0's only fact is <e0, r0, e1>, present twice; removing it isolates e0.
  const std::vector<Triple> train = {Triple(0, 0, 1), Triple(1, 0, 2),
                                     Triple(0, 0, 1), Triple(2, 1, 3)};
  const Dataset d = MakeIdDataset(4, 2, train);
  const std::vector<Triple> removed = {Triple(0, 0, 1)};
  const std::vector<Triple> added = {Triple(3, 1, 3)};
  EXPECT_TRUE(d.ModifiedTrainingFactsOf(0, removed, added).empty());
  EXPECT_EQ(d.ModifiedTrainingFactsOf(3, removed, added),
            (std::vector<Triple>{Triple(2, 1, 3), Triple(3, 1, 3)}));
  ExpectMatchesRebuild(d, removed, added);
}

TEST(DatasetTest, ModifiedTrainingFactsOfMatchesRebuildAroundAHub) {
  // e0 is a hub of over 1,000 facts (with duplicates), beside sparse noise.
  constexpr size_t kEntities = 800;
  constexpr size_t kRelations = 2;
  Rng rng(99);
  std::vector<Triple> train;
  for (size_t x = 1; x < kEntities; ++x) {
    train.push_back(Triple(0, 0, static_cast<EntityId>(x)));
    if (x % 4 == 0) train.push_back(Triple(static_cast<EntityId>(x), 1, 0));
    if (x % 10 == 0) train.push_back(Triple(0, 0, static_cast<EntityId>(x)));
    train.push_back(RandomTriple(rng, kEntities, kRelations));
  }
  const Dataset d = MakeIdDataset(kEntities, kRelations, train);
  ASSERT_GE(d.train_graph().Degree(0), 1000u);
  const std::vector<Triple> hub = d.train_graph().FactsOf(0);
  std::vector<Triple> removed;
  std::vector<Triple> added;
  for (size_t i = 0; i < 40; ++i) {
    removed.push_back(hub[rng.UniformUint64(hub.size())]);
    const auto x = static_cast<EntityId>(1 + rng.UniformUint64(kEntities - 1));
    added.push_back(Triple(x, 1, 0));
  }
  added.push_back(Triple(0, 1, 0));  // self-loop on the hub
  ExpectMatchesRebuild(d, removed, added);
}

TEST(DatasetStatsTest, ComputesTable1Shape) {
  Dataset d = MakeDataset();
  DatasetStats stats = ComputeStats(d);
  EXPECT_EQ(stats.name, "toy");
  EXPECT_EQ(stats.num_entities, 4u);
  EXPECT_EQ(stats.num_relations, 3u);
  EXPECT_EQ(stats.num_train, 3u);
  EXPECT_EQ(stats.num_valid, 1u);
  EXPECT_EQ(stats.num_test, 1u);
  // Degrees: obama 1, honolulu 3, usa 1, xi 1 -> mean 1.5, max 3.
  EXPECT_DOUBLE_EQ(stats.mean_entity_degree, 1.5);
  EXPECT_EQ(stats.max_entity_degree, 3u);
}

}  // namespace
}  // namespace kelpie
