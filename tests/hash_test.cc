// Pins the library's one 64-bit mixer and the hashes built on it to fixed
// values. Relevance-cache files, run journals and derived seeds persist
// these bits, so any change here would silently orphan data on disk or
// move every seeded result.
#include "common/hash.h"

#include <gtest/gtest.h>

#include "core/relevance_cache.h"
#include "kgraph/triple.h"

namespace kelpie {
namespace {

TEST(HashTest, Mix64IsTheSplitMix64Finalizer) {
  EXPECT_EQ(Mix64(0), 0u);
  EXPECT_EQ(Mix64(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(Mix64(0x0123456789abcdefULL), 0xb2c058e4ebb5112cULL);
  EXPECT_EQ(Mix64(~0ULL), 0xb4d055fcf2cbbd7bULL);
}

TEST(HashTest, TripleHashMixesTheTripleKey) {
  EXPECT_EQ(TripleHash{}(Triple(1, 2, 3)), size_t{0xf28d409604f088acULL});
  EXPECT_EQ(TripleHash{}(Triple(1000, 7, 52341)),
            size_t{0x2fe03017e3e6db4dULL});
  EXPECT_EQ(TripleHash{}(Triple(1, 2, 3)), Mix64(Triple(1, 2, 3).Key()));
}

TEST(HashTest, RelevanceCacheKeyHashIsPinned) {
  EXPECT_EQ(RelevanceCache::KeyHash(0, {}), 0xc4fe4b1f77c86a5eULL);
  EXPECT_EQ(RelevanceCache::KeyHash(5, {Triple(5, 0, 8), Triple(3, 1, 5)}),
            0xa1b58a45d4069a00ULL);
  EXPECT_EQ(RelevanceCache::KeyHash(12345, {Triple(12345, 3, 77)}),
            0xab2cbf6b2d79b043ULL);
}

TEST(HashTest, EntityFactsHashDependsOnStartEntityAndFactOrder) {
  const std::vector<Triple> facts{Triple(5, 0, 8), Triple(3, 1, 5)};
  const std::vector<Triple> reversed{facts[1], facts[0]};
  EXPECT_EQ(EntityFactsHash(0x5ca1ab1ecafef00dULL, 5, facts),
            RelevanceCache::KeyHash(5, facts));
  EXPECT_NE(EntityFactsHash(1, 5, facts), EntityFactsHash(2, 5, facts));
  EXPECT_NE(EntityFactsHash(1, 5, facts), EntityFactsHash(1, 3, facts));
  EXPECT_NE(EntityFactsHash(1, 5, facts), EntityFactsHash(1, 5, reversed));
}

}  // namespace
}  // namespace kelpie
