#ifndef KELPIE_KGRAPH_DATASET_H_
#define KELPIE_KGRAPH_DATASET_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "kgraph/dictionary.h"
#include "kgraph/graph.h"
#include "kgraph/triple.h"

namespace kelpie {

/// A link-prediction dataset: entity/relation dictionaries and the
/// train/valid/test triple splits, plus the indexes evaluation and Kelpie
/// need (training-graph index and the filtered-ranking maps).
///
/// Mirrors the research-dataset structure of Section 2.1 of the paper:
/// G = G_train ∪ G_valid ∪ G_test.
class Dataset {
 public:
  /// Assembles a dataset from already-encoded splits. Dictionaries may be
  /// empty when triples were produced synthetically with ids only; in that
  /// case names are synthesized as "e<id>" / "r<id>".
  Dataset(std::string name, Dictionary entities, Dictionary relations,
          std::vector<Triple> train, std::vector<Triple> valid,
          std::vector<Triple> test);

  const std::string& name() const { return name_; }
  size_t num_entities() const { return entities_.size(); }
  size_t num_relations() const { return relations_.size(); }

  const Dictionary& entities() const { return entities_; }
  const Dictionary& relations() const { return relations_; }

  const std::vector<Triple>& train() const { return train_; }
  const std::vector<Triple>& valid() const { return valid_; }
  const std::vector<Triple>& test() const { return test_; }

  /// Index over the training split (Kelpie only reasons about training
  /// facts).
  const GraphIndex& train_graph() const { return *train_graph_; }

  /// Entities that would make <h, r, e> a known fact (any split). Used for
  /// filtered ranking: known answers other than the target do not count as
  /// mistakes.
  const std::unordered_set<EntityId>& KnownTails(EntityId h,
                                                 RelationId r) const;

  /// Entities that would make <e, r, t> a known fact (any split).
  const std::unordered_set<EntityId>& KnownHeads(RelationId r,
                                                 EntityId t) const;

  /// True if <h,r,t> occurs in any split.
  bool IsKnown(const Triple& t) const { return all_.count(t.Key()) > 0; }

  /// Human-readable rendering "<head, relation, tail>".
  std::string TripleToString(const Triple& t) const;

  /// Builds a copy of this dataset whose training set lacks `removed` and
  /// additionally contains `added` (deduplicated). Valid/test splits and
  /// dictionaries are preserved. This is the mutation primitive of the
  /// end-to-end evaluation: explanations are applied to G_train and the
  /// model is retrained from scratch.
  ///
  /// The new training split is the kept training triples in their order
  /// (first copy of a duplicate), then the new added triples in `added`
  /// order; ModifiedTrainingFactsOf reads one entity's slice of it without
  /// building it.
  Dataset WithModifiedTraining(const std::vector<Triple>& removed,
                               const std::vector<Triple>& added) const;

  /// WithModifiedTraining(removed, added).train_graph().FactsOf(e), read
  /// off this dataset's training graph instead of a rebuilt one:
  /// O(Degree(e) + |removed| + |added|). Empty when the modification leaves
  /// `e` with no training fact.
  std::vector<Triple> ModifiedTrainingFactsOf(
      EntityId e, const std::vector<Triple>& removed,
      const std::vector<Triple>& added) const;

 private:
  void BuildIndexes();

  std::string name_;
  Dictionary entities_;
  Dictionary relations_;
  std::vector<Triple> train_;
  std::vector<Triple> valid_;
  std::vector<Triple> test_;

  std::shared_ptr<const GraphIndex> train_graph_;
  std::unordered_set<uint64_t> all_;
  // (h, r) -> known tails; (r, t) -> known heads, over all splits.
  std::unordered_map<uint64_t, std::unordered_set<EntityId>> known_tails_;
  std::unordered_map<uint64_t, std::unordered_set<EntityId>> known_heads_;
};

/// Summary statistics in the shape of the paper's Table 1.
struct DatasetStats {
  std::string name;
  size_t num_entities = 0;
  size_t num_relations = 0;
  size_t num_train = 0;
  size_t num_valid = 0;
  size_t num_test = 0;
  double mean_entity_degree = 0.0;
  size_t max_entity_degree = 0;
};

/// Computes Table-1 style statistics for `dataset`.
DatasetStats ComputeStats(const Dataset& dataset);

}  // namespace kelpie

#endif  // KELPIE_KGRAPH_DATASET_H_
