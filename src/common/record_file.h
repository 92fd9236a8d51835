#ifndef KELPIE_COMMON_RECORD_FILE_H_
#define KELPIE_COMMON_RECORD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace kelpie::record_file {

/// -----------------------------------------------------------------------
/// The one on-disk layout of every persisted artifact (DESIGN.md, "On-disk
/// record files"): model files, training checkpoints, the relevance cache,
/// the experiment journal and the update journal. Each format supplies only
/// its magic, its version and its payload schema; this layer owns the
/// framing, the checksums and the torn-tail rules.
///
///   header = magic[8] | u32 version | u64 fingerprint | u32 crc32c(above)
///   frame  = u8 tag | u64 length | payload | u32 crc32c(tag ‖ payload)
///
/// Everything is little-endian. The fingerprint binds a file to whatever
/// produced it (a training setup, a model, a run); formats that need no
/// binding store 0.
/// -----------------------------------------------------------------------

/// Identity of one format: an 8-byte magic and its layout version.
struct Format {
  std::string_view magic;
  uint32_t version = 0;
};

/// Size of the header; the first frame starts here.
inline constexpr size_t kHeaderSize = 8 + 4 + 8 + 4;
/// Bytes a frame adds around its payload (tag, length, CRC).
inline constexpr size_t kFrameOverhead = 1 + 8 + 4;

/// Serialized header of a `format` file bound to `fingerprint`.
std::string Header(const Format& format, uint64_t fingerprint);

/// Appends one frame to `image` and returns the offset of its payload's
/// first byte (fault injection uses it to damage a payload in place).
size_t AppendFrame(std::string& image, uint8_t tag, std::string_view payload);

enum class HeaderOutcome : uint8_t {
  kOk,
  kBadMagic,    ///< shorter than the magic, or another magic
  kCorrupt,     ///< magic matches, but the header is short or its CRC fails
  kBadVersion,  ///< verifies, but records another layout version
};

enum class FrameOutcome : uint8_t {
  kOk,
  /// The CRC does not match, but the length fits in the file, so the next
  /// frame can still be found.
  kCorrupt,
  /// The length field is short or runs past the end of the file; nothing
  /// after it can be framed.
  kTornTail,
};

struct Frame {
  FrameOutcome outcome = FrameOutcome::kOk;
  uint8_t tag = 0;
  /// Points into the reader's bytes (set for kOk and kCorrupt).
  std::string_view payload;
  /// File offset one past this frame (for kTornTail, where it started).
  size_t end = 0;
};

/// Reads a record file held whole in memory. Every length is checked
/// against the bytes left before anything is sliced, and payloads are views
/// into the file bytes, so a damaged length never drives an allocation.
class Reader {
 public:
  /// Reads `path` once. Fails (IoError) only when the file cannot be read;
  /// every kind of damage is reported through header() and Next().
  static Result<Reader> Open(const std::string& path, const Format& format);

  Reader(const Format& format, std::string bytes);

  HeaderOutcome header() const { return header_; }
  /// Stored fingerprint; meaningful when header() is kOk.
  uint64_t fingerprint() const { return fingerprint_; }
  /// The whole file.
  std::string_view bytes() const { return bytes_; }

  /// Reads the next frame into `frame`. Returns false at the end of the
  /// file, when the header is not kOk, and after a torn tail has been
  /// reported.
  bool Next(Frame& frame);

  /// Reads exactly one ok frame per entry of `tags`, in order, and then
  /// expects the end of the file — the shape of a file written whole.
  /// Anything else is DataLoss naming what went wrong. The views point into
  /// this reader's bytes.
  Result<std::vector<std::string_view>> ReadSequence(
      std::span<const uint8_t> tags);

 private:
  std::string bytes_;
  HeaderOutcome header_ = HeaderOutcome::kBadMagic;
  uint64_t fingerprint_ = 0;
  size_t offset_ = kHeaderSize;
};

/// An append-only record file. Open publishes `image` — a header and any
/// frames the caller verified — through WriteFileAtomic, which is the one
/// way a torn or corrupt tail is dropped; appends go after it. Each append
/// is flushed but never fsynced: a crash loses at most the frame being
/// written, and the next Open drops it.
class Appender {
 public:
  static Result<Appender> Open(const std::string& path, std::string_view image);

  Status Append(uint8_t tag, std::string_view payload);

  /// An inert appender (no file); assign from Open() before use.
  Appender() = default;
  Appender(Appender&&) = default;
  Appender& operator=(Appender&&) = default;

 private:
  std::string path_;
  std::ofstream out_;
  std::string frame_;
};

}  // namespace kelpie::record_file

#endif  // KELPIE_COMMON_RECORD_FILE_H_
