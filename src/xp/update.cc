#include "xp/update.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/crc32c.h"
#include "common/hash.h"
#include "common/record_file.h"
#include "core/relevance_cache.h"
#include "math/rng.h"
#include "models/model_store.h"

namespace kelpie::xp {

namespace {

/// The update journal is a record file (common/record_file.h) with the run
/// id in its header and one row frame per completed row. Row payload
/// (host-endian, single-host artifact):
///   u64 entity | u64 dim | dim * f32
/// The run id binds the journal to (model parameters, delta, seed); frames
/// replay in any order, so a torn tail only costs recomputing its row.
constexpr record_file::Format kJournalFormat{"KELPIEUD", 2};
constexpr uint8_t kRowFrame = 1;

/// The output of a SplitMix64 generator whose state is `x`: the
/// golden-ratio increment, then Mix64. Not Mix64 itself: update rows and
/// journal run ids persist its bits.
uint64_t SplitMix64Next(uint64_t x) {
  return Mix64(x + 0x9e3779b97f4a7c15ULL);
}

template <typename T>
void AppendRaw(std::string& out, T value) {
  const char* p = reinterpret_cast<const char*>(&value);
  out.append(p, sizeof(T));
}

template <typename T>
bool ReadRaw(std::string_view bytes, size_t& off, T* value) {
  if (bytes.size() - off < sizeof(T)) return false;
  std::memcpy(value, bytes.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

/// Seed of one affected entity's post-training stream: a pure function of
/// the update seed, the entity, and its exact updated fact sequence — the
/// chain shape of EntityFactsHash (core/relevance_cache.h) stepped with
/// SplitMix64Next under a third salt, so the stream stays independent of
/// the engine's post-training seeds and the cache's keys.
uint64_t UpdateRowSeed(uint64_t seed, EntityId entity,
                       const std::vector<Triple>& facts) {
  uint64_t h = SplitMix64Next(seed ^ 0x1d0ba7e5ca1ab1e5ULL);
  h = SplitMix64Next(h ^
                     static_cast<uint64_t>(static_cast<uint32_t>(entity)));
  h = SplitMix64Next(h ^ static_cast<uint64_t>(facts.size()));
  for (const Triple& f : facts) {
    h = SplitMix64Next(h ^ f.Key());
  }
  return h;
}

/// Run id binding a journal to this exact update: pre-update parameter
/// fingerprint (already covers architecture, shapes and seedless state),
/// the update seed, and a CRC over the canonical delta bytes.
uint64_t ComputeRunId(uint64_t params_fingerprint, uint64_t seed,
                      const KgDelta& delta) {
  std::string canon;
  AppendRaw(canon, static_cast<uint64_t>(delta.add.size()));
  for (const Triple& t : delta.add) {
    AppendRaw(canon, t.head);
    AppendRaw(canon, t.relation);
    AppendRaw(canon, t.tail);
  }
  AppendRaw(canon, static_cast<uint64_t>(delta.remove.size()));
  for (const Triple& t : delta.remove) {
    AppendRaw(canon, t.head);
    AppendRaw(canon, t.relation);
    AppendRaw(canon, t.tail);
  }
  uint64_t h = SplitMix64Next(params_fingerprint ^ 0x5eed0fUL);
  h = SplitMix64Next(h ^ seed);
  h = SplitMix64Next(h ^ static_cast<uint64_t>(Crc32c(canon)));
  return h;
}

std::string RowPayload(EntityId entity, const std::vector<float>& row) {
  std::string payload;
  AppendRaw(payload, static_cast<uint64_t>(static_cast<uint32_t>(entity)));
  AppendRaw(payload, static_cast<uint64_t>(row.size()));
  payload.append(reinterpret_cast<const char*>(row.data()),
                 row.size() * sizeof(float));
  return payload;
}

/// Replays the rows of a verified-header journal into `rows`, stopping at
/// the first frame that is not ok or whose row does not fit this model, and
/// returns the verified prefix (header + good frames) to rewrite.
std::string_view RecoverRows(
    record_file::Reader& reader, size_t dim, size_t num_entities,
    std::unordered_map<EntityId, std::vector<float>>& rows) {
  size_t verified_end = record_file::kHeaderSize;
  record_file::Frame frame;
  while (reader.Next(frame) &&
         frame.outcome == record_file::FrameOutcome::kOk &&
         frame.tag == kRowFrame) {
    size_t off = 0;
    uint64_t entity_raw = 0;
    uint64_t row_dim = 0;
    if (!ReadRaw(frame.payload, off, &entity_raw) ||
        !ReadRaw(frame.payload, off, &row_dim) ||
        entity_raw >= num_entities || row_dim != dim ||
        frame.payload.size() - off != dim * sizeof(float)) {
      break;
    }
    std::vector<float> row(dim);
    std::memcpy(row.data(), frame.payload.data() + off, dim * sizeof(float));
    rows.emplace(static_cast<EntityId>(entity_raw), std::move(row));
    verified_end = frame.end;
  }
  return reader.bytes().substr(0, verified_end);
}

/// One tab-separated field; empty fields are malformed (caught by the
/// caller's count check plus the name lookups).
std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

Status DeltaLineError(std::string_view source, size_t line_number,
                      const std::string& what) {
  std::ostringstream msg;
  msg << source << ":" << line_number << ": " << what;
  return Status::InvalidArgument(msg.str());
}

}  // namespace

Result<KgDelta> ParseKgDelta(std::string_view text, const Dataset& dataset,
                             std::string_view source) {
  KgDelta delta;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    const std::vector<std::string_view> fields = SplitTabs(line);
    if (fields.size() != 4) {
      return DeltaLineError(source, line_number,
                            "expected 4 tab-separated fields "
                            "(op, head, relation, tail), got " +
                                std::to_string(fields.size()));
    }
    const std::string_view op = fields[0];
    const bool is_add = op == "add" || op == "+";
    const bool is_remove = op == "remove" || op == "-";
    if (!is_add && !is_remove) {
      return DeltaLineError(source, line_number,
                            "unknown operation '" + std::string(op) +
                                "' (expected add/remove)");
    }
    Result<int32_t> head = dataset.entities().Find(fields[1]);
    if (!head.ok()) {
      return DeltaLineError(source, line_number,
                            "unknown entity '" + std::string(fields[1]) +
                                "' (incremental update does not grow the "
                                "vocabulary)");
    }
    Result<int32_t> relation = dataset.relations().Find(fields[2]);
    if (!relation.ok()) {
      return DeltaLineError(source, line_number,
                            "unknown relation '" + std::string(fields[2]) +
                                "'");
    }
    Result<int32_t> tail = dataset.entities().Find(fields[3]);
    if (!tail.ok()) {
      return DeltaLineError(source, line_number,
                            "unknown entity '" + std::string(fields[3]) +
                                "' (incremental update does not grow the "
                                "vocabulary)");
    }
    const Triple t{*head, *relation, *tail};
    (is_add ? delta.add : delta.remove).push_back(t);
  }
  return delta;
}

std::vector<EntityId> AffectedEntities(const KgDelta& delta) {
  std::vector<EntityId> affected;
  affected.reserve(2 * (delta.add.size() + delta.remove.size()));
  for (const std::vector<Triple>* list : {&delta.add, &delta.remove}) {
    for (const Triple& t : *list) {
      affected.push_back(t.head);
      affected.push_back(t.tail);
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  return affected;
}

Result<UpdateReport> ApplyKgUpdate(LinkPredictionModel& model,
                                   const Dataset& dataset,
                                   const KgDelta& delta,
                                   const UpdateOptions& options) {
  KELPIE_RETURN_IF_ERROR(CheckModelMatchesDataset(model, dataset));

  // Validate before touching anything: ids in range, removes present in
  // (and adds absent from) the training split, no duplicates, no triple on
  // both sides. ParseKgDelta guarantees the range checks for parsed
  // deltas; programmatic ones get them here.
  const auto check_range = [&](const Triple& t) -> Status {
    if (t.head < 0 || t.tail < 0 || t.relation < 0 ||
        static_cast<size_t>(t.head) >= dataset.num_entities() ||
        static_cast<size_t>(t.tail) >= dataset.num_entities() ||
        static_cast<size_t>(t.relation) >= dataset.num_relations()) {
      return Status::InvalidArgument("delta triple out of vocabulary range");
    }
    return Status::Ok();
  };
  std::unordered_set<Triple, TripleHash> seen_add;
  std::unordered_set<Triple, TripleHash> seen_remove;
  const GraphIndex& train = dataset.train_graph();
  for (const Triple& t : delta.add) {
    Status s = check_range(t);
    if (!s.ok()) return s;
    if (!seen_add.insert(t).second) {
      return Status::InvalidArgument("duplicate added triple " +
                                     dataset.TripleToString(t));
    }
    if (train.Contains(t)) {
      return Status::InvalidArgument("added triple already in training set: " +
                                     dataset.TripleToString(t));
    }
  }
  for (const Triple& t : delta.remove) {
    Status s = check_range(t);
    if (!s.ok()) return s;
    if (!seen_remove.insert(t).second) {
      return Status::InvalidArgument("duplicate removed triple " +
                                     dataset.TripleToString(t));
    }
    if (seen_add.count(t) > 0) {
      return Status::InvalidArgument(
          "triple both added and removed: " + dataset.TripleToString(t));
    }
    if (!train.Contains(t)) {
      return Status::InvalidArgument(
          "removed triple not in training set: " + dataset.TripleToString(t));
    }
  }

  UpdateReport report;
  report.triples_added = delta.add.size();
  report.triples_removed = delta.remove.size();
  report.affected = AffectedEntities(delta);
  report.fingerprint_before = ComputeModelFingerprint(model, options.seed);
  report.fingerprint_after = report.fingerprint_before;
  if (delta.empty()) return report;

  const size_t dim = model.entity_dim();
  const uint64_t run_id =
      ComputeRunId(report.fingerprint_before, options.seed, delta);

  // Rows completed so far, staged off to the side: every PostTrainMimic
  // below sees the original parameters, which is what makes the schedule
  // (and a crash/resume split) irrelevant to the final bytes.
  std::unordered_map<EntityId, std::vector<float>> staged;

  record_file::Appender journal;
  if (!options.journal_path.empty()) {
    // A bad header is a fresh start; only a *verifying* header with the
    // wrong run id is refused — that file is healthy, it just belongs to a
    // different update.
    std::string prefix = record_file::Header(kJournalFormat, run_id);
    Result<record_file::Reader> existing =
        options.resume
            ? record_file::Reader::Open(options.journal_path, kJournalFormat)
            : Status::NotFound(options.journal_path);
    if (existing.ok() &&
        existing->header() == record_file::HeaderOutcome::kOk) {
      if (existing->fingerprint() != run_id) {
        return Status::FailedPrecondition(
            "journal " + options.journal_path +
            " belongs to a different update run (model, delta or seed "
            "changed); delete it or point --journal elsewhere");
      }
      prefix = std::string(
          RecoverRows(*existing, dim, model.num_entities(), staged));
      report.rows_replayed = staged.size();
    }
    // Rewrite the verified prefix (or a fresh header) atomically, then
    // append: a torn tail from a previous crash is dropped exactly once.
    KELPIE_ASSIGN_OR_RETURN(
        journal, record_file::Appender::Open(options.journal_path, prefix));
  }

  for (EntityId entity : report.affected) {
    // The entity's facts in the updated graph, in the order a rebuilt
    // graph lists them; the seed below hashes that order.
    const std::vector<Triple> facts =
        dataset.ModifiedTrainingFactsOf(entity, delta.remove, delta.add);
    if (facts.empty()) {
      // The delta removed this entity's last triple: there is nothing to
      // post-train against, so its row stays bitwise put (and is never
      // journaled — replaying a resume reaches the same conclusion).
      report.isolated.push_back(entity);
      continue;
    }
    if (staged.count(entity) > 0) continue;
    if (options.cancel.cancelled()) {
      return Status::Cancelled(
          "update cancelled; completed rows are journaled, re-run with "
          "--resume");
    }
    Rng rng(UpdateRowSeed(options.seed, entity, facts));
    std::span<const float> current = model.EntityEmbedding(entity);
    // Post-training reads only the dataset's entity count (see
    // PostTrainMimic), which the delta does not change.
    std::vector<float> row =
        model.PostTrainMimic(dataset, entity, facts, rng, current);
    if (row.size() != dim) {
      return Status::Internal("post-training returned a row of " +
                              std::to_string(row.size()) + " floats, want " +
                              std::to_string(dim));
    }
    if (!options.journal_path.empty()) {
      KELPIE_RETURN_IF_ERROR(journal.Append(kRowFrame, RowPayload(entity, row)));
    }
    staged.emplace(entity, std::move(row));
    ++report.rows_recomputed;
  }

  // Commit: all rows verified present, swap them in together. Isolated
  // entities have no staged row — theirs stay bitwise put.
  for (EntityId entity : report.affected) {
    auto it = staged.find(entity);
    if (it == staged.end()) continue;
    const std::vector<float>& row = it->second;
    std::span<float> dst = model.MutableEntityEmbedding(entity);
    std::copy(row.begin(), row.end(), dst.begin());
  }
  report.fingerprint_after = ComputeModelFingerprint(model, options.seed);
  report.params_changed =
      report.fingerprint_after != report.fingerprint_before;
  return report;
}

}  // namespace kelpie::xp
