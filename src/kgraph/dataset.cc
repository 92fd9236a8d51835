#include "kgraph/dataset.h"

#include <algorithm>

#include "common/logging.h"

namespace kelpie {

namespace {

uint64_t PairKey(int32_t a, int32_t b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

const std::unordered_set<EntityId>& EmptyEntitySet() {
  static const std::unordered_set<EntityId>* kEmpty =
      new std::unordered_set<EntityId>();
  return *kEmpty;
}

}  // namespace

Dataset::Dataset(std::string name, Dictionary entities, Dictionary relations,
                 std::vector<Triple> train, std::vector<Triple> valid,
                 std::vector<Triple> test)
    : name_(std::move(name)),
      entities_(std::move(entities)),
      relations_(std::move(relations)),
      train_(std::move(train)),
      valid_(std::move(valid)),
      test_(std::move(test)) {
  BuildIndexes();
}

void Dataset::BuildIndexes() {
  train_graph_ =
      std::make_shared<GraphIndex>(train_, entities_.size());
  all_.clear();
  known_tails_.clear();
  known_heads_.clear();
  for (const auto* split : {&train_, &valid_, &test_}) {
    for (const Triple& t : *split) {
      all_.insert(t.Key());
      known_tails_[PairKey(t.head, t.relation)].insert(t.tail);
      known_heads_[PairKey(t.relation, t.tail)].insert(t.head);
    }
  }
}

const std::unordered_set<EntityId>& Dataset::KnownTails(EntityId h,
                                                        RelationId r) const {
  auto it = known_tails_.find(PairKey(h, r));
  return it == known_tails_.end() ? EmptyEntitySet() : it->second;
}

const std::unordered_set<EntityId>& Dataset::KnownHeads(RelationId r,
                                                        EntityId t) const {
  auto it = known_heads_.find(PairKey(r, t));
  return it == known_heads_.end() ? EmptyEntitySet() : it->second;
}

std::string Dataset::TripleToString(const Triple& t) const {
  std::string out = "<";
  out += entities_.NameOf(t.head);
  out += ", ";
  out += relations_.NameOf(t.relation);
  out += ", ";
  out += entities_.NameOf(t.tail);
  out += ">";
  return out;
}

Dataset Dataset::WithModifiedTraining(const std::vector<Triple>& removed,
                                      const std::vector<Triple>& added) const {
  std::unordered_set<uint64_t> to_remove;
  to_remove.reserve(removed.size());
  for (const Triple& t : removed) {
    to_remove.insert(t.Key());
  }
  std::vector<Triple> new_train;
  new_train.reserve(train_.size() + added.size());
  std::unordered_set<uint64_t> present;
  present.reserve(train_.size() + added.size());
  for (const Triple& t : train_) {
    if (to_remove.count(t.Key())) continue;
    if (present.insert(t.Key()).second) {
      new_train.push_back(t);
    }
  }
  for (const Triple& t : added) {
    if (to_remove.count(t.Key())) continue;
    if (present.insert(t.Key()).second) {
      new_train.push_back(t);
    }
  }
  return Dataset(name_, entities_, relations_, std::move(new_train), valid_,
                 test_);
}

std::vector<Triple> Dataset::ModifiedTrainingFactsOf(
    EntityId e, const std::vector<Triple>& removed,
    const std::vector<Triple>& added) const {
  // Only triples mentioning `e` can be in its list, so only those removals
  // matter.
  std::unordered_set<uint64_t> to_remove;
  for (const Triple& t : removed) {
    if (t.Mentions(e)) to_remove.insert(t.Key());
  }
  const GraphIndex& graph = train_graph();
  // Every copy of a triple mentioning `e` is in FactIndicesOf(e), in
  // training order, so deduplicating that list keeps the global first copy;
  // an added triple mentioning `e` is already present iff it is in here.
  std::unordered_set<uint64_t> present;
  present.reserve(graph.Degree(e) + added.size());
  std::vector<Triple> facts;
  facts.reserve(graph.Degree(e) + added.size());
  for (uint32_t i : graph.FactIndicesOf(e)) {
    const Triple& t = graph.triples()[i];
    if (to_remove.count(t.Key()) == 0 && present.insert(t.Key()).second) {
      facts.push_back(t);
    }
  }
  for (const Triple& t : added) {
    if (t.Mentions(e) && to_remove.count(t.Key()) == 0 &&
        present.insert(t.Key()).second) {
      facts.push_back(t);
    }
  }
  return facts;
}

DatasetStats ComputeStats(const Dataset& dataset) {
  DatasetStats stats;
  stats.name = dataset.name();
  stats.num_entities = dataset.num_entities();
  stats.num_relations = dataset.num_relations();
  stats.num_train = dataset.train().size();
  stats.num_valid = dataset.valid().size();
  stats.num_test = dataset.test().size();
  const GraphIndex& g = dataset.train_graph();
  size_t total_degree = 0;
  for (size_t e = 0; e < dataset.num_entities(); ++e) {
    size_t d = g.Degree(static_cast<EntityId>(e));
    total_degree += d;
    stats.max_entity_degree = std::max(stats.max_entity_degree, d);
  }
  stats.mean_entity_degree =
      dataset.num_entities() == 0
          ? 0.0
          : static_cast<double>(total_degree) /
                static_cast<double>(dataset.num_entities());
  return stats;
}

}  // namespace kelpie
