#include "ml/checkpoint.h"

#include <bit>
#include <filesystem>
#include <limits>
#include <sstream>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/record_file.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

/// v3: the common record-file layout, the training fingerprint in the
/// header. Earlier versions are not read (they restore as kCorrupt).
constexpr record_file::Format kFormat{"KELPCKP1", 3};
/// One frame per section, in this order.
constexpr uint8_t kStateFrame = 1;
constexpr uint8_t kRngFrame = 2;
constexpr uint8_t kCountersFrame = 3;
constexpr uint8_t kParamsFrame = 4;
/// The opaque save_sparse blob itself; the trainer's restore_sparse hook
/// is its parser.
constexpr uint8_t kSparseFrame = 5;
constexpr uint8_t kFrameOrder[] = {kStateFrame, kRngFrame, kCountersFrame,
                                   kParamsFrame, kSparseFrame};
constexpr std::string_view kFileName = "train.ckpt";
/// Bound on restored list lengths (recovery events, counters, param spans);
/// far above anything real, low enough to reject corrupt headers cheaply.
constexpr uint64_t kMaxListEntries = 4096;

metrics::Counter& RestoreCounter(std::string_view outcome) {
  return metrics::Registry::Global().GetCounter(
      "kelpie_checkpoint_restore_total", {{"outcome", std::string(outcome)}},
      metrics::Determinism::kDeterministic,
      "Training checkpoint restore attempts by outcome.");
}

Status WriteF32Bits(std::ostream& out, float v) {
  return WriteU64(out, std::bit_cast<uint32_t>(v));
}

Status ReadF32Bits(std::istream& in, float& v) {
  uint64_t bits = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, bits));
  if (bits > std::numeric_limits<uint32_t>::max()) {
    return Status::DataLoss("float bit pattern out of range");
  }
  v = std::bit_cast<float>(static_cast<uint32_t>(bits));
  return Status::Ok();
}

Status SerializeStateSection(const CheckpointState& state, std::string& out) {
  std::ostringstream os;
  KELPIE_RETURN_IF_ERROR(WriteU64(os, state.next_epoch));
  KELPIE_RETURN_IF_ERROR(WriteF32Bits(os, state.lr_scale));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, static_cast<uint64_t>(state.recoveries_left)));
  KELPIE_RETURN_IF_ERROR(WriteU64(os, state.report.epochs_run));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, static_cast<uint64_t>(state.report.recoveries)));
  KELPIE_RETURN_IF_ERROR(WriteF32Bits(os, state.report.lr_scale));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, static_cast<uint64_t>(state.report.completeness)));
  KELPIE_RETURN_IF_ERROR(WriteU64(os, state.report.events.size()));
  for (const RecoveryEvent& e : state.report.events) {
    KELPIE_RETURN_IF_ERROR(WriteU64(os, e.epoch));
    KELPIE_RETURN_IF_ERROR(WriteF32Bits(os, e.lr_scale));
    KELPIE_RETURN_IF_ERROR(WriteString(os, e.reason));
  }
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseStateSection(std::string_view payload, CheckpointState& state) {
  std::istringstream in{std::string(payload)};
  KELPIE_RETURN_IF_ERROR(ReadU64(in, state.next_epoch));
  KELPIE_RETURN_IF_ERROR(ReadF32Bits(in, state.lr_scale));
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  state.recoveries_left = static_cast<int64_t>(v);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, state.report.epochs_run));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  state.report.recoveries = static_cast<int>(v);
  KELPIE_RETURN_IF_ERROR(ReadF32Bits(in, state.report.lr_scale));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  if (v > static_cast<uint64_t>(Completeness::kCancelled)) {
    return Status::DataLoss("checkpoint completeness out of range");
  }
  state.report.completeness = static_cast<Completeness>(v);
  uint64_t n_events = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, n_events));
  if (n_events > kMaxListEntries) {
    return Status::DataLoss("checkpoint recovery ledger implausibly long");
  }
  state.report.events.resize(n_events);
  for (RecoveryEvent& e : state.report.events) {
    KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
    e.epoch = v;
    KELPIE_RETURN_IF_ERROR(ReadF32Bits(in, e.lr_scale));
    KELPIE_RETURN_IF_ERROR(ReadString(in, e.reason));
  }
  return Status::Ok();
}

Status SerializeRngSection(const RngState& rng, std::string& out) {
  std::ostringstream os;
  for (uint64_t s : rng.s) KELPIE_RETURN_IF_ERROR(WriteU64(os, s));
  KELPIE_RETURN_IF_ERROR(WriteU64(os, rng.has_cached_normal ? 1 : 0));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, std::bit_cast<uint64_t>(rng.cached_normal)));
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseRngSection(std::string_view payload, RngState& rng) {
  std::istringstream in{std::string(payload)};
  for (uint64_t& s : rng.s) KELPIE_RETURN_IF_ERROR(ReadU64(in, s));
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  rng.has_cached_normal = (v != 0);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  rng.cached_normal = std::bit_cast<double>(v);
  return Status::Ok();
}

Status SerializeCountersSection(const std::vector<uint64_t>& counters,
                                std::string& out) {
  std::ostringstream os;
  KELPIE_RETURN_IF_ERROR(WriteU64(os, counters.size()));
  for (uint64_t c : counters) KELPIE_RETURN_IF_ERROR(WriteU64(os, c));
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseCountersSection(std::string_view payload,
                            std::vector<uint64_t>& counters) {
  std::istringstream in{std::string(payload)};
  uint64_t n = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, n));
  if (n > kMaxListEntries) {
    return Status::DataLoss("checkpoint counters implausibly long");
  }
  counters.resize(n);
  for (uint64_t& c : counters) KELPIE_RETURN_IF_ERROR(ReadU64(in, c));
  return Status::Ok();
}

Status SerializeParamsSection(const std::vector<std::vector<float>>& params,
                              std::string& out) {
  std::ostringstream os;
  KELPIE_RETURN_IF_ERROR(WriteU64(os, params.size()));
  for (const std::vector<float>& span : params) {
    KELPIE_RETURN_IF_ERROR(WriteFloats(os, span));
  }
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseParamsSection(std::string_view payload,
                          std::vector<std::vector<float>>& params) {
  std::istringstream in{std::string(payload)};
  uint64_t n = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, n));
  if (n > kMaxListEntries) {
    return Status::DataLoss("checkpoint params span count implausible");
  }
  params.resize(n);
  for (std::vector<float>& span : params) {
    // A span can hold no more floats than the payload has bytes left.
    KELPIE_RETURN_IF_ERROR(ReadFloats(in, span, payload.size() / 4));
  }
  return Status::Ok();
}

}  // namespace

std::string_view CheckpointRestoreOutcomeName(CheckpointRestoreOutcome o) {
  switch (o) {
    case CheckpointRestoreOutcome::kNotAttempted:
      return "NotAttempted";
    case CheckpointRestoreOutcome::kNoFile:
      return "NoFile";
    case CheckpointRestoreOutcome::kRestored:
      return "Restored";
    case CheckpointRestoreOutcome::kCorrupt:
      return "Corrupt";
    case CheckpointRestoreOutcome::kStaleConfig:
      return "StaleConfig";
    case CheckpointRestoreOutcome::kShapeMismatch:
      return "ShapeMismatch";
  }
  return "Unknown";
}

TrainCheckpointer::TrainCheckpointer(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.interval_epochs == 0) options_.interval_epochs = 1;
}

std::string TrainCheckpointer::FilePath() const {
  return (std::filesystem::path(options_.directory) / kFileName).string();
}

bool TrainCheckpointer::ShouldSave(uint64_t completed_epochs) const {
  return saves_enabled() && completed_epochs % options_.interval_epochs == 0;
}

std::optional<CheckpointState> TrainCheckpointer::TryRestore() {
  restored_epoch_ = 0;
  if (!options_.resume) {
    outcome_ = CheckpointRestoreOutcome::kNotAttempted;
    return std::nullopt;
  }
  const std::string path = FilePath();
  Result<record_file::Reader> reader = record_file::Reader::Open(path, kFormat);
  if (!reader.ok()) {
    outcome_ = CheckpointRestoreOutcome::kNoFile;
    RestoreCounter("no_file").Increment();
    return std::nullopt;
  }

  // Everything below degrades: a checkpoint that cannot be trusted is a
  // scratch start (or a restart from the last good checkpoint the atomic
  // writer preserved), never a hard failure.
  auto degrade = [&](CheckpointRestoreOutcome outcome,
                     const std::string& why) -> std::optional<CheckpointState> {
    outcome_ = outcome;
    RestoreCounter(outcome == CheckpointRestoreOutcome::kStaleConfig
                       ? "stale_config"
                       : "corrupt")
        .Increment();
    KELPIE_LOG(Warning) << "checkpoint " << path << ": " << why
                        << "; restarting training from scratch";
    return std::nullopt;
  };

  if (reader->header() != record_file::HeaderOutcome::kOk) {
    return degrade(CheckpointRestoreOutcome::kCorrupt,
                   "unreadable or wrong-version header");
  }
  uint64_t expected = options_.fingerprint;
  if (failpoint::Fire("checkpoint.stale_config")) expected ^= 1;
  if (options_.mode == CheckpointMode::kResume &&
      reader->fingerprint() != expected) {
    return degrade(CheckpointRestoreOutcome::kStaleConfig,
                   "config fingerprint mismatch (different model, "
                   "hyperparameters, dataset or seed)");
  }

  CheckpointState state;
  Result<std::vector<std::string_view>> frames =
      reader->ReadSequence(kFrameOrder);
  Status parsed = frames.status();
  if (parsed.ok()) parsed = ParseStateSection((*frames)[0], state);
  if (parsed.ok()) parsed = ParseRngSection((*frames)[1], state.rng);
  if (parsed.ok()) parsed = ParseCountersSection((*frames)[2], state.counters);
  if (parsed.ok()) parsed = ParseParamsSection((*frames)[3], state.params);
  if (parsed.ok()) state.sparse = std::string((*frames)[4]);
  if (!parsed.ok()) {
    return degrade(CheckpointRestoreOutcome::kCorrupt, parsed.ToString());
  }

  outcome_ = CheckpointRestoreOutcome::kRestored;
  restored_epoch_ = state.next_epoch;
  RestoreCounter("restored").Increment();
  return state;
}

Status TrainCheckpointer::Save(const CheckpointState& state) {
  uint64_t fingerprint = options_.fingerprint;
  if (failpoint::Fire("checkpoint.stale_config")) fingerprint ^= 1;
  std::string image = record_file::Header(kFormat, fingerprint);
  std::string section;
  KELPIE_RETURN_IF_ERROR(SerializeStateSection(state, section));
  record_file::AppendFrame(image, kStateFrame, section);
  KELPIE_RETURN_IF_ERROR(SerializeRngSection(state.rng, section));
  record_file::AppendFrame(image, kRngFrame, section);
  KELPIE_RETURN_IF_ERROR(SerializeCountersSection(state.counters, section));
  record_file::AppendFrame(image, kCountersFrame, section);
  KELPIE_RETURN_IF_ERROR(SerializeParamsSection(state.params, section));
  const size_t params_offset =
      record_file::AppendFrame(image, kParamsFrame, section);
  record_file::AppendFrame(image, kSparseFrame, state.sparse);

  if (failpoint::Fire("checkpoint.bit_flip")) {
    // Flip one byte inside the params payload: framing survives, the frame
    // CRC must catch it.
    const size_t off = params_offset + section.size() / 2;
    image[off] = static_cast<char>(image[off] ^ 0x10);
  }
  if (failpoint::Fire("checkpoint.partial_write")) {
    // A crash mid-serialization: only a prefix (torn inside a frame)
    // reaches the file.
    image.resize(image.size() * 3 / 5);
  }

  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " +
                           options_.directory + ": " + ec.message());
  }
  KELPIE_RETURN_IF_ERROR(WriteFileAtomic(FilePath(), image));
  metrics::Registry::Global()
      .GetCounter("kelpie_checkpoint_saves_total", {},
                  metrics::Determinism::kDeterministic,
                  "Training checkpoints written.")
      .Increment();
  return Status::Ok();
}

}  // namespace kelpie
