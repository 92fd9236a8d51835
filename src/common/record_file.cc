#include "common/record_file.h"

#include <utility>

#include "common/atomic_file.h"
#include "common/crc32c.h"

namespace kelpie::record_file {

namespace {

constexpr size_t kMagicSize = 8;
/// Tag and length: the payload starts this far into its frame.
constexpr size_t kFramePrefix = 1 + 8;

template <typename T>
void PutLe(std::string& out, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((static_cast<uint64_t>(value) >> (8 * i)) &
                                    0xFF));
  }
}

template <typename T>
T GetLe(std::string_view bytes, size_t offset) {
  uint64_t value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
  }
  return static_cast<T>(value);
}

uint32_t FrameCrc(uint8_t tag, std::string_view payload) {
  return Crc32cExtend(Crc32c(&tag, 1), payload.data(), payload.size());
}

}  // namespace

std::string Header(const Format& format, uint64_t fingerprint) {
  std::string out(format.magic.substr(0, kMagicSize));
  out.resize(kMagicSize, '\0');
  PutLe(out, format.version);
  PutLe(out, fingerprint);
  PutLe(out, Crc32c(out));
  return out;
}

size_t AppendFrame(std::string& image, uint8_t tag, std::string_view payload) {
  image.push_back(static_cast<char>(tag));
  PutLe(image, static_cast<uint64_t>(payload.size()));
  const size_t payload_offset = image.size();
  image.append(payload);
  PutLe(image, FrameCrc(tag, payload));
  return payload_offset;
}

Result<Reader> Reader::Open(const std::string& path, const Format& format) {
  KELPIE_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
  return Reader(format, std::move(bytes));
}

Reader::Reader(const Format& format, std::string bytes)
    : bytes_(std::move(bytes)) {
  const std::string_view b = bytes_;
  if (b.size() < kMagicSize || b.substr(0, kMagicSize) != format.magic) {
    header_ = HeaderOutcome::kBadMagic;
  } else if (b.size() < kHeaderSize ||
             GetLe<uint32_t>(b, kHeaderSize - 4) !=
                 Crc32c(b.data(), kHeaderSize - 4)) {
    header_ = HeaderOutcome::kCorrupt;
  } else if (GetLe<uint32_t>(b, kMagicSize) != format.version) {
    header_ = HeaderOutcome::kBadVersion;
  } else {
    header_ = HeaderOutcome::kOk;
    fingerprint_ = GetLe<uint64_t>(b, kMagicSize + 4);
  }
}

bool Reader::Next(Frame& frame) {
  if (header_ != HeaderOutcome::kOk || offset_ >= bytes_.size()) return false;
  const std::string_view b = bytes_;
  const size_t start = offset_;
  const size_t left = b.size() - start;
  frame = Frame{};
  frame.end = start;
  // Both checks run before anything is sliced: a short or oversized length
  // ends the file here.
  if (left < kFrameOverhead ||
      GetLe<uint64_t>(b, start + 1) > left - kFrameOverhead) {
    frame.outcome = FrameOutcome::kTornTail;
    offset_ = b.size();
    return true;
  }
  const size_t length = GetLe<uint64_t>(b, start + 1);
  frame.tag = static_cast<uint8_t>(b[start]);
  frame.payload = b.substr(start + kFramePrefix, length);
  frame.end = start + kFrameOverhead + length;
  frame.outcome = GetLe<uint32_t>(b, frame.end - 4) ==
                          FrameCrc(frame.tag, frame.payload)
                      ? FrameOutcome::kOk
                      : FrameOutcome::kCorrupt;
  offset_ = frame.end;
  return true;
}

Result<std::vector<std::string_view>> Reader::ReadSequence(
    std::span<const uint8_t> tags) {
  if (header_ != HeaderOutcome::kOk) {
    return Status::DataLoss("record file header does not verify");
  }
  std::vector<std::string_view> payloads;
  Frame frame;
  for (uint8_t tag : tags) {
    const std::string which = "frame " + std::to_string(tag);
    if (!Next(frame)) {
      return Status::DataLoss("record file ends before " + which);
    }
    if (frame.outcome == FrameOutcome::kTornTail) {
      return Status::DataLoss("record file torn at " + which);
    }
    if (frame.outcome == FrameOutcome::kCorrupt) {
      return Status::DataLoss(which + " fails its checksum");
    }
    if (frame.tag != tag) {
      return Status::DataLoss("expected " + which + ", found frame " +
                              std::to_string(frame.tag));
    }
    payloads.push_back(frame.payload);
  }
  if (Next(frame)) {
    return Status::DataLoss("unexpected bytes after the last frame");
  }
  return payloads;
}

Result<Appender> Appender::Open(const std::string& path,
                                std::string_view image) {
  KELPIE_RETURN_IF_ERROR(WriteFileAtomic(path, image));
  Appender appender;
  appender.path_ = path;
  appender.out_.open(path, std::ios::binary | std::ios::app);
  if (!appender.out_) {
    return Status::IoError("cannot open for appending: " + path);
  }
  return appender;
}

Status Appender::Append(uint8_t tag, std::string_view payload) {
  frame_.clear();
  AppendFrame(frame_, tag, payload);
  out_.write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  out_.flush();
  if (!out_) return Status::IoError("append failed: " + path_);
  return Status::Ok();
}

}  // namespace kelpie::record_file
