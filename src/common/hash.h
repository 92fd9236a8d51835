#ifndef KELPIE_COMMON_HASH_H_
#define KELPIE_COMMON_HASH_H_

#include <cstdint>

namespace kelpie {

/// SplitMix64 finalizer: full-avalanche 64-bit mixing. Every derived seed,
/// hash key and run id in the library chains through it, and relevance
/// cache files and run journals persist values computed with it, so its
/// bits are pinned by hash_test.
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace kelpie

#endif  // KELPIE_COMMON_HASH_H_
