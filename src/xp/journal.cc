#include "xp/journal.h"

#include <bit>
#include <sstream>

#include "ml/serialization.h"

namespace kelpie {

namespace {

/// v4: the common record-file layout, the run id in the header, the
/// summary as its own frame type. Earlier versions are not read.
constexpr record_file::Format kFormat{"KELPIEJL", 4};
constexpr uint8_t kRecordFrame = 1;
constexpr uint8_t kSummaryFrame = 2;
// Defense against corrupt counts: no legitimate record (a few dozen
// triples) comes anywhere near this.
constexpr uint64_t kMaxRecordSize = 1ull << 24;

Status WriteTriple(std::ostream& out, const Triple& t) {
  KELPIE_RETURN_IF_ERROR(
      WriteU64(out, static_cast<uint64_t>(static_cast<uint32_t>(t.head))));
  KELPIE_RETURN_IF_ERROR(WriteU64(
      out, static_cast<uint64_t>(static_cast<uint32_t>(t.relation))));
  return WriteU64(out, static_cast<uint64_t>(static_cast<uint32_t>(t.tail)));
}

Status ReadTriple(std::istream& in, Triple& t) {
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  t.head = static_cast<EntityId>(static_cast<uint32_t>(v));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  t.relation = static_cast<RelationId>(static_cast<uint32_t>(v));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  t.tail = static_cast<EntityId>(static_cast<uint32_t>(v));
  return Status::Ok();
}

Result<std::string> SerializeRecord(const PredictionRecord& r) {
  std::ostringstream out;
  KELPIE_RETURN_IF_ERROR(WriteTriple(out, r.prediction));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.facts.size()));
  for (const Triple& f : r.facts) {
    KELPIE_RETURN_IF_ERROR(WriteTriple(out, f));
  }
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.conversion_set.size()));
  for (EntityId e : r.conversion_set) {
    KELPIE_RETURN_IF_ERROR(
        WriteU64(out, static_cast<uint64_t>(static_cast<uint32_t>(e))));
  }
  KELPIE_RETURN_IF_ERROR(WriteU64(out, std::bit_cast<uint64_t>(r.relevance)));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.accepted ? 1 : 0));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.post_trainings));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.visited_candidates));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.completeness));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.skipped_candidates));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, r.divergent_candidates));
  return std::move(out).str();
}

Status ParseRecord(std::string_view payload, PredictionRecord& r) {
  std::istringstream in{std::string(payload)};
  KELPIE_RETURN_IF_ERROR(ReadTriple(in, r.prediction));
  uint64_t count = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, count));
  if (count > kMaxRecordSize / 24) {
    return Status::DataLoss("journal record fact count out of range");
  }
  r.facts.resize(count);
  for (Triple& f : r.facts) {
    KELPIE_RETURN_IF_ERROR(ReadTriple(in, f));
  }
  KELPIE_RETURN_IF_ERROR(ReadU64(in, count));
  if (count > kMaxRecordSize / 8) {
    return Status::DataLoss("journal record conversion count out of range");
  }
  r.conversion_set.resize(count);
  for (EntityId& e : r.conversion_set) {
    uint64_t v = 0;
    KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
    e = static_cast<EntityId>(static_cast<uint32_t>(v));
  }
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  r.relevance = std::bit_cast<double>(v);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  r.accepted = (v != 0);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, r.post_trainings));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, r.visited_candidates));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, r.completeness));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, r.skipped_candidates));
  return ReadU64(in, r.divergent_candidates);
}

Result<std::string> SerializeSummary(const RunSummary& s) {
  std::ostringstream out;
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.predictions));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.accepted));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.truncated));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.post_trainings));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.visited_candidates));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.skipped_candidates));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.divergent_candidates));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(out, std::bit_cast<uint64_t>(s.mean_relevance)));
  return std::move(out).str();
}

Status ParseSummary(std::string_view payload, RunSummary& s) {
  std::istringstream in{std::string(payload)};
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.predictions));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.accepted));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.truncated));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.post_trainings));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.visited_candidates));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.skipped_candidates));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, s.divergent_candidates));
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  s.mean_relevance = std::bit_cast<double>(v);
  return Status::Ok();
}

}  // namespace

Result<RunJournal> RunJournal::Open(const std::string& path, uint64_t run_id,
                                    bool resume) {
  RunJournal journal;
  if (path.empty()) return journal;
  std::string image = record_file::Header(kFormat, run_id);
  Result<record_file::Reader> existing =
      resume ? record_file::Reader::Open(path, kFormat)
             : Status::NotFound(path);
  if (existing.ok() && !existing->bytes().empty()) {
    record_file::Reader& reader = *existing;
    if (reader.header() != record_file::HeaderOutcome::kOk) {
      return Status::DataLoss("not a kelpie journal file: " + path);
    }
    if (reader.fingerprint() != run_id) {
      return Status::FailedPrecondition(
          "journal " + path +
          " belongs to a different run configuration; refusing to resume "
          "(delete it or drop --resume to start over)");
    }
    // Replay complete records; stop at the first frame that is not ok.
    // Anything after it is a casualty of the interrupted write. A summary
    // frame is consumed but not kept: the file is rewritten up to the last
    // data record, so appends resume there and the finished run writes a
    // fresh summary.
    size_t last_record_end = record_file::kHeaderSize;
    record_file::Frame frame;
    while (reader.Next(frame) &&
           frame.outcome == record_file::FrameOutcome::kOk) {
      if (frame.tag == kRecordFrame) {
        PredictionRecord record;
        KELPIE_RETURN_IF_ERROR(ParseRecord(frame.payload, record));
        journal.recovered_.push_back(std::move(record));
        last_record_end = frame.end;
      } else if (frame.tag == kSummaryFrame) {
        RunSummary summary;
        KELPIE_RETURN_IF_ERROR(ParseSummary(frame.payload, summary));
        journal.recovered_summary_ = summary;
      } else {
        break;
      }
    }
    image = std::string(reader.bytes().substr(0, last_record_end));
  }
  KELPIE_ASSIGN_OR_RETURN(journal.out_,
                          record_file::Appender::Open(path, image));
  journal.has_file_ = true;
  return journal;
}

Status RunJournal::Append(const PredictionRecord& record) {
  if (!has_file_) return Status::Ok();
  std::string payload;
  KELPIE_ASSIGN_OR_RETURN(payload, SerializeRecord(record));
  return out_.Append(kRecordFrame, payload);
}

Status RunJournal::AppendSummary(const RunSummary& summary) {
  if (!has_file_) return Status::Ok();
  std::string payload;
  KELPIE_ASSIGN_OR_RETURN(payload, SerializeSummary(summary));
  return out_.Append(kSummaryFrame, payload);
}

}  // namespace kelpie
