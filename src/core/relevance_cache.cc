#include "core/relevance_cache.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <unordered_set>
#include <utility>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/record_file.h"

namespace kelpie {

namespace {

/// A record file (common/record_file.h) whose header carries the model
/// fingerprint, then one entry frame per cached mimic, least-recently-used
/// first. Entry payload (host-endian, single-host cache):
///   i32 entity | u32 num_facts | u32 dim
///   | num_facts * (i32 head, i32 relation, i32 tail) | dim * f32
constexpr record_file::Format kFormat{"KELPRC1\n", 2};
constexpr uint8_t kEntryFrame = 1;
constexpr size_t kPayloadFixed = 12;

/// An output sink that keeps only the CRC32C and the count of the bytes
/// written through it: the parameter fingerprint streams SaveParameters
/// here instead of copying every parameter into a string first.
class Crc32cSink : public std::streambuf {
 public:
  uint32_t crc() const { return crc_; }
  uint64_t size() const { return size_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    crc_ = Crc32cExtend(crc_, s, static_cast<size_t>(n));
    size_ += static_cast<uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  uint32_t crc_ = 0;
  uint64_t size_ = 0;
};

template <typename T>
void AppendRaw(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
T ReadRaw(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

size_t PayloadSize(size_t num_facts, size_t dim) {
  return kPayloadFixed + num_facts * 12 + dim * 4;
}

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

struct ParsedEntry {
  EntityId entity = kNoEntity;
  std::vector<Triple> facts;
  std::vector<float> mimic;
};

/// Walks the frames of a verified-header file, appending every entry that
/// verifies to `out` and counting what was dropped. The rules are the
/// cache's row of the DESIGN.md §17 degradation table: a torn tail ends
/// parsing; a frame whose CRC, tag or payload structure does not verify is
/// skipped, and parsing goes on with the next frame.
void ParseFrames(record_file::Reader& reader, std::vector<ParsedEntry>* out,
                 uint64_t* corrupt, bool* torn) {
  record_file::Frame frame;
  while (reader.Next(frame)) {
    if (frame.outcome == record_file::FrameOutcome::kTornTail) {
      *torn = true;
      return;
    }
    const std::string_view payload = frame.payload;
    if (frame.outcome != record_file::FrameOutcome::kOk ||
        frame.tag != kEntryFrame || payload.size() < kPayloadFixed) {
      ++*corrupt;
      continue;
    }
    ParsedEntry entry;
    entry.entity = ReadRaw<int32_t>(payload.data());
    const uint32_t num_facts = ReadRaw<uint32_t>(payload.data() + 4);
    const uint32_t dim = ReadRaw<uint32_t>(payload.data() + 8);
    if (PayloadSize(num_facts, dim) != payload.size()) {
      ++*corrupt;
      continue;
    }
    entry.facts.reserve(num_facts);
    const char* p = payload.data() + kPayloadFixed;
    for (uint32_t i = 0; i < num_facts; ++i, p += 12) {
      entry.facts.emplace_back(ReadRaw<int32_t>(p), ReadRaw<int32_t>(p + 4),
                               ReadRaw<int32_t>(p + 8));
    }
    entry.mimic.resize(dim);
    std::memcpy(entry.mimic.data(), p, dim * sizeof(float));
    out->push_back(std::move(entry));
  }
}

std::string EntryPayload(EntityId entity, const std::vector<Triple>& facts,
                         const std::vector<float>& mimic) {
  std::string payload;
  payload.reserve(PayloadSize(facts.size(), mimic.size()));
  AppendRaw(payload, static_cast<int32_t>(entity));
  AppendRaw(payload, static_cast<uint32_t>(facts.size()));
  AppendRaw(payload, static_cast<uint32_t>(mimic.size()));
  for (const Triple& f : facts) {
    AppendRaw(payload, static_cast<int32_t>(f.head));
    AppendRaw(payload, static_cast<int32_t>(f.relation));
    AppendRaw(payload, static_cast<int32_t>(f.tail));
  }
  for (float v : mimic) AppendRaw(payload, v);
  return payload;
}

}  // namespace

RelevanceCache::CacheMetrics RelevanceCache::CacheMetrics::Resolve() {
  metrics::Registry& reg = metrics::Registry::Global();
  constexpr auto kWallClock = metrics::Determinism::kWallClock;
  auto event = [&](const char* name) -> metrics::Counter& {
    return reg.GetCounter(
        "kelpie_relevance_cache_events_total", {{"event", name}}, kWallClock,
        "Persistent relevance-cache events: lookup outcomes (hit, miss, "
        "wait, collision) and evictions (LRU, corrupt entry, fingerprint "
        "invalidation, torn tail).");
  };
  return CacheMetrics{
      .hit = event("hit"),
      .miss = event("miss"),
      .wait = event("wait"),
      .collision = event("collision"),
      .evict_lru = event("evict_lru"),
      .evict_corrupt = event("evict_corrupt"),
      .evict_fingerprint = event("evict_fingerprint"),
      .torn_tail = event("torn_tail"),
      .entries = reg.GetGauge("kelpie_relevance_cache_entries", {}, kWallClock,
                              "Ready entries held by the relevance cache."),
      .bytes = reg.GetGauge("kelpie_relevance_cache_bytes", {}, kWallClock,
                            "Estimated bytes held by the relevance cache."),
  };
}

RelevanceCache::RelevanceCache(RelevanceCacheOptions options)
    : options_(std::move(options)), metrics_(CacheMetrics::Resolve()) {}

std::shared_ptr<RelevanceCache> RelevanceCache::Open(
    RelevanceCacheOptions options) {
  std::shared_ptr<RelevanceCache> cache(
      new RelevanceCache(std::move(options)));
  cache->LoadFromDisk();
  return cache;
}

size_t RelevanceCache::EntryBytes(size_t num_facts, size_t dim) {
  // The on-disk frame size plus a fixed estimate of the in-memory index
  // overhead; exactness does not matter, only a consistent bound.
  return record_file::kFrameOverhead + PayloadSize(num_facts, dim) + 64;
}

uint64_t EntityFactsHash(uint64_t start, EntityId entity,
                         const std::vector<Triple>& facts) {
  uint64_t h = Mix64(start);
  h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(entity)));
  h = Mix64(h ^ static_cast<uint64_t>(facts.size()));
  for (const Triple& f : facts) {
    h = Mix64(h ^ f.Key());
  }
  return h;
}

uint64_t RelevanceCache::KeyHash(EntityId entity,
                                 const std::vector<Triple>& facts) {
  return EntityFactsHash(0x5ca1ab1ecafef00dULL, entity, facts);
}

void RelevanceCache::LoadFromDisk() {
  if (options_.path.empty()) return;
  Result<record_file::Reader> reader =
      record_file::Reader::Open(options_.path, kFormat);
  if (!reader.ok()) return;  // missing file = valid empty cache
  if (reader->bytes().empty()) return;
  if (reader->header() != record_file::HeaderOutcome::kOk) {
    // Unrecognizable header: not this format (or torn inside the header).
    // Start empty; the next Flush rewrites it wholesale.
    evict_corrupt_.fetch_add(1, std::memory_order_relaxed);
    metrics_.evict_corrupt.Increment();
    return;
  }
  if (reader->fingerprint() != options_.fingerprint ||
      failpoint::Fire("cache.stale_fingerprint")) {
    // The model (or engine seed) changed since this file was written; its
    // mimics would be wrong for the current parameters. Invalidate all.
    evict_fingerprint_.fetch_add(1, std::memory_order_relaxed);
    metrics_.evict_fingerprint.Increment();
    return;
  }
  std::vector<ParsedEntry> entries;
  uint64_t corrupt = 0;
  bool torn = false;
  ParseFrames(*reader, &entries, &corrupt, &torn);
  if (corrupt > 0) {
    evict_corrupt_.fetch_add(corrupt, std::memory_order_relaxed);
    metrics_.evict_corrupt.Increment(corrupt);
  }
  if (torn) {
    torn_tail_.fetch_add(1, std::memory_order_relaxed);
    metrics_.torn_tail.Increment();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (ParsedEntry& entry : entries) {
    InsertReadyLocked(entry.entity, std::move(entry.facts),
                      std::move(entry.mimic));
  }
  UpdateGaugesLocked();
}

void RelevanceCache::InsertReadyLocked(EntityId entity,
                                       std::vector<Triple> facts,
                                       std::vector<float> mimic) {
  const uint64_t key = KeyHash(entity, facts);
  std::shared_ptr<Entry>& slot = index_[key];
  if (slot) return;  // duplicate frame; first wins
  slot = std::make_shared<Entry>();
  slot->entity = entity;
  slot->facts = std::move(facts);
  slot->bytes = EntryBytes(slot->facts.size(), mimic.size());
  slot->mimic = std::move(mimic);
  slot->ready = true;
  slot->done.store(true, std::memory_order_release);
  slot->lru_pos = lru_.insert(lru_.end(), key);
  slot->in_lru = true;
  bytes_ += slot->bytes;
  ++ready_entries_;
  while (options_.max_bytes > 0 && bytes_ > options_.max_bytes &&
         lru_.size() > 1) {
    const uint64_t victim_key = lru_.front();
    auto it = index_.find(victim_key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      --ready_entries_;
      index_.erase(it);
    }
    lru_.pop_front();
    evict_lru_.fetch_add(1, std::memory_order_relaxed);
    metrics_.evict_lru.Increment();
  }
}

std::vector<float> RelevanceCache::GetOrCompute(
    EntityId entity, const std::vector<Triple>& facts,
    const ComputeFn& compute) {
  const uint64_t key = KeyHash(entity, facts);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = index_[key];
    if (!slot) {
      slot = std::make_shared<Entry>();
      slot->entity = entity;
      slot->facts = facts;
    }
    entry = slot;
    if (entry->in_lru) {
      lru_.splice(lru_.end(), lru_, entry->lru_pos);
    }
  }
  if (entry->entity != entity || entry->facts != facts) {
    // 64-bit key collision. Exact verification keeps the contract absolute:
    // the colliding request recomputes uncached rather than ever receiving
    // another key's mimic.
    collisions_.fetch_add(1, std::memory_order_relaxed);
    metrics_.collision.Increment();
    return compute();
  }
  const bool published = entry->done.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(entry->mu);
  if (entry->ready) {
    if (published) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics_.hit.Increment();
    } else {
      waits_.fetch_add(1, std::memory_order_relaxed);
      metrics_.wait.Increment();
    }
    return entry->mimic;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics_.miss.Increment();
  std::vector<float> mimic = compute();
  // Diverged (non-finite) mimics are returned but never stored: a
  // failpoint-poisoned post-training must not outlive its request, and a
  // genuinely diverged one recomputes identically anyway (same seed).
  if (!mimic.empty() && AllFinite(mimic)) {
    entry->mimic = mimic;
    entry->bytes = EntryBytes(entry->facts.size(), mimic.size());
    entry->ready = true;
    entry->done.store(true, std::memory_order_release);
    lock.unlock();
    AccountAndEvict(entry, key);
  }
  return mimic;
}

void RelevanceCache::AccountAndEvict(const std::shared_ptr<Entry>& entry,
                                     uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  // A concurrent Purge may have dropped the slot; the computed vector was
  // already returned to the caller, so nothing to account.
  if (it == index_.end() || it->second != entry) return;
  if (!entry->in_lru) {
    entry->lru_pos = lru_.insert(lru_.end(), key);
    entry->in_lru = true;
    bytes_ += entry->bytes;
    ++ready_entries_;
  }
  while (options_.max_bytes > 0 && bytes_ > options_.max_bytes &&
         lru_.size() > 1) {
    const uint64_t victim_key = lru_.front();
    if (victim_key == key) break;  // never evict the entry just inserted
    auto victim = index_.find(victim_key);
    if (victim != index_.end()) {
      bytes_ -= victim->second->bytes;
      --ready_entries_;
      index_.erase(victim);
    }
    lru_.pop_front();
    evict_lru_.fetch_add(1, std::memory_order_relaxed);
    metrics_.evict_lru.Increment();
  }
  UpdateGaugesLocked();
}

void RelevanceCache::UpdateGaugesLocked() {
  metrics_.entries.Set(static_cast<double>(ready_entries_));
  metrics_.bytes.Set(static_cast<double>(bytes_));
}

Status RelevanceCache::Flush() {
  if (options_.path.empty()) return Status::Ok();
  uint64_t fingerprint = options_.fingerprint;
  if (failpoint::Fire("cache.stale_fingerprint")) {
    // Simulate a file written by a different model: the header verifies,
    // the fingerprint does not match the next Open.
    fingerprint ^= 1;
  }
  std::string image = record_file::Header(kFormat, fingerprint);
  size_t last_payload_off = 0;
  size_t last_payload_len = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t key : lru_) {
      auto it = index_.find(key);
      if (it == index_.end() || !it->second->ready) continue;
      const Entry& entry = *it->second;
      const std::string payload =
          EntryPayload(entry.entity, entry.facts, entry.mimic);
      last_payload_len = payload.size();
      last_payload_off = record_file::AppendFrame(image, kEntryFrame, payload);
    }
  }
  if (last_payload_len > 0 && failpoint::Fire("cache.bit_flip")) {
    // One payload bit of the last (hottest) entry flips; its CRC stops
    // verifying and the next Open evicts exactly that entry.
    image[last_payload_off + last_payload_len / 2] ^= 0x10;
  }
  if (failpoint::Fire("cache.partial_write")) {
    // The image ends mid-entry, as if the writer died after the frame
    // header went out: the next Open truncates the torn tail.
    const size_t cut = last_payload_len > 0
                           ? last_payload_off + last_payload_len / 2
                           : image.size() / 2;
    image.resize(cut);
  }
  return WriteFileAtomic(options_.path, image);
}

Status RelevanceCache::Purge() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    lru_.clear();
    bytes_ = 0;
    ready_entries_ = 0;
    UpdateGaugesLocked();
  }
  if (options_.path.empty()) return Status::Ok();
  return WriteFileAtomic(options_.path,
                         record_file::Header(kFormat, options_.fingerprint));
}

size_t RelevanceCache::PurgeEntities(const std::vector<EntityId>& entities) {
  std::unordered_set<EntityId> affected(entities.begin(), entities.end());
  if (affected.empty()) return 0;
  size_t dropped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = index_.begin(); it != index_.end();) {
    const std::shared_ptr<Entry>& entry = it->second;
    // In-flight slots (another thread mid-compute) are skipped: their
    // result is accounted later by AccountAndEvict against the then-current
    // index, and callers purge before serving against updated parameters.
    if (!entry->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    bool hit = affected.count(entry->entity) > 0;
    if (!hit) {
      for (const Triple& fact : entry->facts) {
        if (affected.count(fact.head) > 0 || affected.count(fact.tail) > 0) {
          hit = true;
          break;
        }
      }
    }
    if (!hit) {
      ++it;
      continue;
    }
    if (entry->in_lru) {
      lru_.erase(entry->lru_pos);
      entry->in_lru = false;
      bytes_ -= entry->bytes;
      --ready_entries_;
    }
    it = index_.erase(it);
    ++dropped;
  }
  UpdateGaugesLocked();
  return dropped;
}

RelevanceCacheStats RelevanceCache::stats() const {
  RelevanceCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.waits = waits_.load(std::memory_order_relaxed);
  out.collisions = collisions_.load(std::memory_order_relaxed);
  out.evict_lru = evict_lru_.load(std::memory_order_relaxed);
  out.evict_corrupt = evict_corrupt_.load(std::memory_order_relaxed);
  out.evict_fingerprint = evict_fingerprint_.load(std::memory_order_relaxed);
  out.torn_tail = torn_tail_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  out.entries = ready_entries_;
  out.bytes = bytes_;
  return out;
}

Result<RelevanceCacheFileInfo> RelevanceCache::Inspect(
    const std::string& path) {
  KELPIE_ASSIGN_OR_RETURN(record_file::Reader reader,
                          record_file::Reader::Open(path, kFormat));
  RelevanceCacheFileInfo info;
  info.file_bytes = reader.bytes().size();
  if (reader.header() != record_file::HeaderOutcome::kOk) {
    return info;  // header_ok stays false: loads as empty
  }
  info.header_ok = true;
  info.fingerprint = reader.fingerprint();
  std::vector<ParsedEntry> entries;
  ParseFrames(reader, &entries, &info.corrupt_entries, &info.torn_tail);
  info.entries = entries.size();
  for (const ParsedEntry& entry : entries) {
    info.payload_bytes += PayloadSize(entry.facts.size(), entry.mimic.size());
  }
  return info;
}

uint64_t ComputeModelFingerprint(const LinkPredictionModel& model,
                                 uint64_t engine_seed) {
  Crc32cSink sink;
  std::ostream params(&sink);
  const Status saved = model.SaveParameters(params);
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
  h = Mix64(h ^ (saved.ok() ? sink.crc() : 0xdeadULL));
  h = Mix64(h ^ sink.size());
  h = Mix64(h ^ engine_seed);
  return h;
}

}  // namespace kelpie
