#ifndef KELPIE_CORE_RELEVANCE_CACHE_H_
#define KELPIE_CORE_RELEVANCE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "kgraph/triple.h"
#include "models/model.h"

namespace kelpie {

/// -----------------------------------------------------------------------
/// Persistent cross-request post-training cache (DESIGN.md §13).
///
/// A post-trained mimic is a pure function of (model parameters, engine
/// seed, entity, exact fact sequence) — see RelevanceEngine::PostTrain's
/// seeding contract. That purity is what makes it cacheable across
/// requests, processes and restarts without touching result bytes: a
/// cached vector is bitwise identical to what a recompute would produce,
/// so explanations are byte-identical with the cache off, cold, warm, or
/// corrupted-then-recovered, at any thread or pool count.
///
/// The store is content-addressed: entries are keyed by the model
/// fingerprint (held in the file header), the mimicked entity and a hash
/// of the exact fact sequence, and every lookup verifies the stored
/// (entity, facts) exactly — a 64-bit hash collision degrades to an
/// uncached recompute, never to a wrong vector.
///
/// Persistence is *untrusted*. The file is a record file
/// (common/record_file.h, magic KELPRC1) with the model fingerprint in its
/// header and one frame per entry, written through WriteFileAtomic (temp +
/// fsync + rename); loading silently drops whatever does not verify — a
/// bad header loads empty (evict_corrupt), a stale fingerprint invalidates
/// everything (evict_fingerprint), a corrupt frame evicts only that entry,
/// a torn tail stops the read (torn_tail). DataLoss is a cache miss, never
/// an error: Open always succeeds on any file bytes and the worst outcome
/// is recomputing. Stored vectors are not checked against the model's
/// dimension here; the engine treats a wrong-sized one as a collision.
///
/// Concurrency: GetOrCompute is thread-safe with per-entry single-flight —
/// concurrent extractions (including across serving-pool instances sharing
/// one cache) needing the same mimic block behind one computation instead
/// of duplicating it. Flush/Purge may run concurrently with lookups.
/// -----------------------------------------------------------------------

struct RelevanceCacheOptions {
  /// Backing file; empty = in-memory only (Flush is a no-op, Open never
  /// reads). Missing files are a valid empty cache.
  std::string path;
  /// Model fingerprint (ComputeModelFingerprint). A file whose header
  /// carries a different fingerprint is invalidated wholesale at Open.
  uint64_t fingerprint = 0;
  /// In-memory (and flushed) size bound; least-recently-used entries are
  /// evicted when an insert would exceed it. 0 = unbounded.
  size_t max_bytes = 64u << 20;
};

/// Point-in-time counters of one cache instance (process-local; the same
/// values feed the kelpie_relevance_cache_* registry families).
struct RelevanceCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Lookups that blocked behind another thread computing the same entry.
  uint64_t waits = 0;
  /// 64-bit key collisions detected by exact verification (recomputed
  /// uncached).
  uint64_t collisions = 0;
  uint64_t evict_lru = 0;
  /// Entries dropped at load because their CRC or structure did not verify.
  uint64_t evict_corrupt = 0;
  /// Whole-file invalidations due to a fingerprint mismatch at load.
  uint64_t evict_fingerprint = 0;
  /// Loads that found (and truncated) an incomplete trailing entry.
  uint64_t torn_tail = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// Offline summary of a cache file (for `kelpie cache stats`): parses with
/// the same recovery rules as Open but verifies against the file's own
/// fingerprint, so it reports what a matching model would load.
struct RelevanceCacheFileInfo {
  uint64_t fingerprint = 0;
  size_t entries = 0;
  size_t payload_bytes = 0;
  size_t file_bytes = 0;
  uint64_t corrupt_entries = 0;
  bool torn_tail = false;
  /// False when the header itself is missing/corrupt (loads as empty).
  bool header_ok = false;
};

/// Hash of one entity's exact fact sequence: Mix64 chained from `start`
/// over the entity, the fact count and each fact's key. The cache keys
/// mimics with it and the engine seeds post-training streams with it, from
/// different start values so keys and streams stay independent functions
/// of the input.
uint64_t EntityFactsHash(uint64_t start, EntityId entity,
                         const std::vector<Triple>& facts);

class RelevanceCache {
 public:
  using ComputeFn = std::function<std::vector<float>()>;

  /// Index key of the mimic of (entity, facts).
  static uint64_t KeyHash(EntityId entity, const std::vector<Triple>& facts);

  /// Opens the cache, loading whatever verifies from options.path. Never
  /// fails: any corruption degrades to fewer loaded entries.
  static std::shared_ptr<RelevanceCache> Open(RelevanceCacheOptions options);

  /// Returns the mimic for (entity, facts), computing it via `compute` on a
  /// miss (single-flight: concurrent callers of the same key wait for one
  /// computation). Non-finite compute results (diverged post-trainings,
  /// including failpoint-injected ones) are returned but never stored —
  /// poison must not outlive the request that injected it.
  std::vector<float> GetOrCompute(EntityId entity,
                                  const std::vector<Triple>& facts,
                                  const ComputeFn& compute);

  /// Serializes every ready entry (least-recently-used first, so a
  /// truncated tail costs the hottest entries last) and writes it through
  /// WriteFileAtomic. No-op without a path. Failpoints, applied to the
  /// serialized image to simulate a crashed or bit-flipping writer:
  ///   "cache.partial_write"     — the image ends mid-entry (torn tail).
  ///   "cache.bit_flip"          — one payload bit of the last entry flips.
  ///   "cache.stale_fingerprint" — the stored fingerprint is perturbed.
  Status Flush();

  /// Drops every entry; with a path, also rewrites the file to an empty
  /// (header-only) cache.
  Status Purge();

  /// Structural invalidation after an incremental KG update (DESIGN.md
  /// §16): drops every ready entry whose mimicked entity is in `entities`
  /// or whose stored fact sequence mentions one of them — those keys hash
  /// fact sets that no longer exist in the updated graph, so they could
  /// never be hit again and would otherwise linger until LRU eviction.
  /// Memory-only (call Flush to persist); in-flight computations are left
  /// alone. Returns the number of entries dropped.
  size_t PurgeEntities(const std::vector<EntityId>& entities);

  RelevanceCacheStats stats() const;

  const RelevanceCacheOptions& options() const { return options_; }

  /// Parses `path` with Open's recovery rules and reports what it holds.
  /// Fails only when the file cannot be read at all; corrupt contents are
  /// reported, not errored.
  static Result<RelevanceCacheFileInfo> Inspect(const std::string& path);

  RelevanceCache(const RelevanceCache&) = delete;
  RelevanceCache& operator=(const RelevanceCache&) = delete;

 private:
  /// One cached mimic. Key fields are set once at insertion (under the
  /// index lock) and immutable afterwards; `mimic` is published under `mu`:
  /// the first thread to need it computes it while holding `mu`, latecomers
  /// block on `mu`, and `done` tells a hit from a single-flight wait.
  struct Entry {
    std::mutex mu;
    bool ready = false;
    std::atomic<bool> done{false};
    EntityId entity = kNoEntity;
    std::vector<Triple> facts;
    std::vector<float> mimic;
    size_t bytes = 0;
    std::list<uint64_t>::iterator lru_pos;
    bool in_lru = false;
  };

  struct CacheMetrics {
    metrics::Counter& hit;
    metrics::Counter& miss;
    metrics::Counter& wait;
    metrics::Counter& collision;
    metrics::Counter& evict_lru;
    metrics::Counter& evict_corrupt;
    metrics::Counter& evict_fingerprint;
    metrics::Counter& torn_tail;
    metrics::Gauge& entries;
    metrics::Gauge& bytes;

    static CacheMetrics Resolve();
  };

  explicit RelevanceCache(RelevanceCacheOptions options);

  /// Loads options_.path, dropping whatever does not verify. Counters
  /// record what was dropped.
  void LoadFromDisk();

  /// Inserts a ready entry (load path). Index lock must be held.
  void InsertReadyLocked(EntityId entity, std::vector<Triple> facts,
                         std::vector<float> mimic);

  /// Publishes `entry` into the LRU accounting and evicts past max_bytes.
  void AccountAndEvict(const std::shared_ptr<Entry>& entry, uint64_t key);

  void UpdateGaugesLocked();

  static size_t EntryBytes(size_t num_facts, size_t dim);

  RelevanceCacheOptions options_;
  CacheMetrics metrics_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> index_;
  /// Least-recently-used at the front; touched keys move to the back.
  std::list<uint64_t> lru_;
  size_t bytes_ = 0;
  size_t ready_entries_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> waits_{0};
  std::atomic<uint64_t> collisions_{0};
  std::atomic<uint64_t> evict_lru_{0};
  std::atomic<uint64_t> evict_corrupt_{0};
  std::atomic<uint64_t> evict_fingerprint_{0};
  std::atomic<uint64_t> torn_tail_{0};
};

/// Fingerprint of everything a cached mimic depends on: the architecture
/// name, the embedding shapes, the post-training hyperparameters, a CRC32C
/// over every learned parameter, and the engine seed. Models differing in
/// any of these produce different mimics, so their caches must not mix;
/// the serving pool's instances are loaded from one file and share one
/// fingerprint by construction.
uint64_t ComputeModelFingerprint(const LinkPredictionModel& model,
                                 uint64_t engine_seed);

}  // namespace kelpie

#endif  // KELPIE_CORE_RELEVANCE_CACHE_H_
