#ifndef KELPIE_KGRAPH_TRIPLE_H_
#define KELPIE_KGRAPH_TRIPLE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/hash.h"

namespace kelpie {

/// Integer identifier of an entity (node) in a knowledge graph.
using EntityId = int32_t;
/// Integer identifier of a relation (edge label) in a knowledge graph.
using RelationId = int32_t;

/// Sentinel for "no entity".
inline constexpr EntityId kNoEntity = -1;
/// Sentinel for "no relation".
inline constexpr RelationId kNoRelation = -1;

/// A fact <head, relation, tail>: the unit of knowledge in a KG and the unit
/// of explanation in Kelpie.
struct Triple {
  EntityId head = kNoEntity;
  RelationId relation = kNoRelation;
  EntityId tail = kNoEntity;

  Triple() = default;
  Triple(EntityId h, RelationId r, EntityId t)
      : head(h), relation(r), tail(t) {}

  bool operator==(const Triple& other) const {
    return head == other.head && relation == other.relation &&
           tail == other.tail;
  }
  bool operator!=(const Triple& other) const { return !(*this == other); }

  /// Lexicographic order (head, relation, tail); enables use in ordered
  /// containers and deterministic sorting.
  bool operator<(const Triple& other) const {
    if (head != other.head) return head < other.head;
    if (relation != other.relation) return relation < other.relation;
    return tail < other.tail;
  }

  /// True if `e` appears as head or tail.
  bool Mentions(EntityId e) const { return head == e || tail == e; }

  /// Packs the triple into a single 64-bit key (21 bits per component);
  /// valid for ids below 2^20, far above this library's scales.
  uint64_t Key() const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(head)) << 42) |
           (static_cast<uint64_t>(static_cast<uint32_t>(relation)) << 21) |
           static_cast<uint64_t>(static_cast<uint32_t>(tail));
  }
};

/// Hash functor for Triple, for unordered containers.
struct TripleHash {
  size_t operator()(const Triple& t) const {
    return static_cast<size_t>(Mix64(t.Key()));
  }
};

/// An incomplete triple <head, relation, ?> or <?, relation, tail> — the
/// query form of a link prediction.
enum class PredictionTarget { kTail, kHead };

}  // namespace kelpie

#endif  // KELPIE_KGRAPH_TRIPLE_H_
