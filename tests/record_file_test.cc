// The corruption matrix of the one on-disk layout every persisted format
// shares (common/record_file.h): truncation at every byte (and so at every
// frame boundary), a bit flip in the header and in every frame, and length
// fields rewritten past the end of the file. Each format only maps these
// named outcomes onto its own degradation rules.
#include "common/record_file.h"

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"

namespace kelpie::record_file {
namespace {

constexpr Format kFormat{"KELPTEST", 7};
constexpr uint64_t kFingerprint = 0x0123456789abcdefULL;

struct Written {
  uint8_t tag;
  std::string payload;
};

/// Frames of assorted tags and sizes, an empty payload included.
std::vector<Written> SampleFrames() {
  return {{1, "alpha"},
          {2, std::string(300, 'x')},
          {1, ""},
          {9, std::string("\0\xff\x10 binary", 10)},
          {3, "omega"}};
}

std::string SampleImage(std::vector<size_t>* frame_ends = nullptr) {
  std::string image = Header(kFormat, kFingerprint);
  for (const Written& w : SampleFrames()) {
    AppendFrame(image, w.tag, w.payload);
    if (frame_ends != nullptr) frame_ends->push_back(image.size());
  }
  return image;
}

/// Everything a reader reports, in order.
struct Walk {
  HeaderOutcome header;
  std::vector<Frame> frames;
};

Walk ReadAll(std::string bytes) {
  Reader reader(kFormat, std::move(bytes));
  Walk walk{reader.header(), {}};
  Frame frame;
  while (reader.Next(frame)) {
    // Payload views die with the reader; the tests compare copies.
    walk.frames.push_back(frame);
    walk.frames.back().payload = {};
  }
  return walk;
}

TEST(RecordFileTest, RoundTripsHeaderAndEveryFrame) {
  Reader reader(kFormat, SampleImage());
  ASSERT_EQ(reader.header(), HeaderOutcome::kOk);
  EXPECT_EQ(reader.fingerprint(), kFingerprint);
  Frame frame;
  for (const Written& w : SampleFrames()) {
    ASSERT_TRUE(reader.Next(frame));
    EXPECT_EQ(frame.outcome, FrameOutcome::kOk);
    EXPECT_EQ(frame.tag, w.tag);
    EXPECT_EQ(frame.payload, w.payload);
  }
  EXPECT_FALSE(reader.Next(frame));
}

TEST(RecordFileTest, LayoutIsLittleEndianAndDocumented) {
  const std::string header = Header(kFormat, kFingerprint);
  ASSERT_EQ(header.size(), kHeaderSize);
  EXPECT_EQ(header.substr(0, 8), "KELPTEST");
  EXPECT_EQ(header[8], 7);  // u32 version, low byte first
  EXPECT_EQ(static_cast<unsigned char>(header[12]), 0xef);  // fingerprint
  std::string image;
  const size_t payload_offset = AppendFrame(image, 5, "abc");
  EXPECT_EQ(payload_offset, 9u);
  ASSERT_EQ(image.size(), kFrameOverhead + 3);
  EXPECT_EQ(image[0], 5);  // tag
  EXPECT_EQ(image[1], 3);  // u64 length, low byte first
  EXPECT_EQ(image.substr(9, 3), "abc");
}

TEST(RecordFileTest, TruncationAtEveryByte) {
  std::vector<size_t> frame_ends;
  const std::string image = SampleImage(&frame_ends);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const Walk walk = ReadAll(image.substr(0, cut));
    if (cut < 8) {
      EXPECT_EQ(walk.header, HeaderOutcome::kBadMagic);
      continue;
    }
    if (cut < kHeaderSize) {
      EXPECT_EQ(walk.header, HeaderOutcome::kCorrupt);
      continue;
    }
    ASSERT_EQ(walk.header, HeaderOutcome::kOk);
    size_t whole = 0;
    while (whole < frame_ends.size() && frame_ends[whole] <= cut) ++whole;
    const bool at_boundary = cut == kHeaderSize ||
                             (whole > 0 && frame_ends[whole - 1] == cut);
    // Every whole frame before the cut reads ok; a cut at a frame boundary
    // is a clean (shorter) file, anywhere else a torn tail.
    ASSERT_EQ(walk.frames.size(), whole + (at_boundary ? 0 : 1));
    for (size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(walk.frames[i].outcome, FrameOutcome::kOk);
    }
    if (!at_boundary) {
      EXPECT_EQ(walk.frames.back().outcome, FrameOutcome::kTornTail);
    }
  }
}

TEST(RecordFileTest, BitFlipInTheHeader) {
  const std::string image = SampleImage();
  for (size_t i = 0; i < kHeaderSize; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = image;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      const Walk walk = ReadAll(bytes);
      EXPECT_EQ(walk.header,
                i < 8 ? HeaderOutcome::kBadMagic : HeaderOutcome::kCorrupt)
          << "byte " << i << " bit " << bit;
      EXPECT_TRUE(walk.frames.empty());
    }
  }
}

TEST(RecordFileTest, BitFlipInEveryFrameSparesTheOthers) {
  std::vector<size_t> frame_ends;
  const std::string image = SampleImage(&frame_ends);
  size_t start = kHeaderSize;
  for (size_t f = 0; f < frame_ends.size(); ++f) {
    const size_t end = frame_ends[f];
    for (size_t i = start; i < end; ++i) {
      const bool length_byte = i >= start + 1 && i < start + 9;
      if (length_byte) continue;  // covered by the length tests below
      std::string bytes = image;
      bytes[i] = static_cast<char>(bytes[i] ^ 0x04);
      const Walk walk = ReadAll(bytes);
      SCOPED_TRACE("frame " + std::to_string(f) + " byte " +
                   std::to_string(i));
      // Tag, payload and CRC are all covered by the frame CRC; the length
      // still fits, so every other frame is found and verifies.
      ASSERT_EQ(walk.frames.size(), frame_ends.size());
      for (size_t g = 0; g < walk.frames.size(); ++g) {
        EXPECT_EQ(walk.frames[g].outcome,
                  g == f ? FrameOutcome::kCorrupt : FrameOutcome::kOk);
      }
    }
    start = end;
  }
}

TEST(RecordFileTest, LengthBeyondTheFileIsATornTail) {
  std::vector<size_t> frame_ends;
  const std::string image = SampleImage(&frame_ends);
  size_t start = kHeaderSize;
  for (size_t f = 0; f < frame_ends.size(); ++f) {
    for (uint64_t length : {uint64_t{1} << 31, uint64_t{1} << 63,
                            ~uint64_t{0}, uint64_t{image.size()}}) {
      std::string bytes = image;
      for (int i = 0; i < 8; ++i) {
        bytes[start + 1 + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
      }
      const Walk walk = ReadAll(bytes);
      SCOPED_TRACE("frame " + std::to_string(f) + " length " +
                   std::to_string(length));
      ASSERT_EQ(walk.frames.size(), f + 1);
      EXPECT_EQ(walk.frames.back().outcome, FrameOutcome::kTornTail);
      EXPECT_EQ(walk.frames.back().end, start);
    }
    start = frame_ends[f];
  }
}

TEST(RecordFileTest, ShorterLengthThatFitsIsCorruptNotAnOverread) {
  std::vector<size_t> frame_ends;
  const std::string image = SampleImage(&frame_ends);
  // Frame 1 (300 bytes) claims 10: the CRC fails, and what follows is
  // read as frames until the bytes run out — never past the end.
  std::string bytes = image;
  bytes[frame_ends[0] + 1] = 10;
  bytes[frame_ends[0] + 2] = 0;
  const Walk walk = ReadAll(bytes);
  ASSERT_GE(walk.frames.size(), 2u);
  EXPECT_EQ(walk.frames[0].outcome, FrameOutcome::kOk);
  EXPECT_EQ(walk.frames[1].outcome, FrameOutcome::kCorrupt);
  for (const Frame& frame : walk.frames) EXPECT_LE(frame.end, bytes.size());
}

TEST(RecordFileTest, OtherVersionAndMagicAreNamed) {
  const Format older{kFormat.magic, kFormat.version - 1};
  EXPECT_EQ(Reader(kFormat, Header(older, 1)).header(),
            HeaderOutcome::kBadVersion);
  const Format other{"KELPOTHR", kFormat.version};
  EXPECT_EQ(Reader(kFormat, Header(other, 1)).header(),
            HeaderOutcome::kBadMagic);
  EXPECT_EQ(Reader(kFormat, "").header(), HeaderOutcome::kBadMagic);
}

TEST(RecordFileTest, ReadSequenceWantsExactlyTheFramesInOrder) {
  std::string image = Header(kFormat, 0);
  AppendFrame(image, 1, "one");
  AppendFrame(image, 2, "two");
  const uint8_t order[] = {1, 2};
  {
    Reader reader(kFormat, image);
    Result<std::vector<std::string_view>> frames = reader.ReadSequence(order);
    ASSERT_TRUE(frames.ok()) << frames.status().ToString();
    EXPECT_EQ((*frames)[0], "one");
    EXPECT_EQ((*frames)[1], "two");
  }
  const uint8_t swapped[] = {2, 1};
  const uint8_t longer[] = {1, 2, 3};
  const uint8_t shorter[] = {1};
  for (std::span<const uint8_t> tags :
       {std::span<const uint8_t>(swapped), std::span<const uint8_t>(longer),
        std::span<const uint8_t>(shorter)}) {
    Reader reader(kFormat, image);
    EXPECT_EQ(reader.ReadSequence(tags).status().code(),
              StatusCode::kDataLoss);
  }
}

class AppenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("kelpie_record_file_test_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(AppenderTest, AppendsAfterThePublishedImage) {
  {
    Result<Appender> out = Appender::Open(path_, Header(kFormat, 4));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(out->Append(1, "first").ok());
    ASSERT_TRUE(out->Append(2, "second").ok());
  }
  Result<Reader> reader = Reader::Open(path_, kFormat);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->fingerprint(), 4u);
  const uint8_t order[] = {1, 2};
  Result<std::vector<std::string_view>> frames = reader->ReadSequence(order);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  EXPECT_EQ((*frames)[1], "second");
}

TEST_F(AppenderTest, ReopeningWithTheVerifiedPrefixDropsATornTail) {
  std::string image = Header(kFormat, 4);
  AppendFrame(image, 1, "kept");
  const size_t verified = image.size();
  AppendFrame(image, 1, "torn");
  ASSERT_TRUE(WriteFileAtomic(path_, image.substr(0, image.size() - 2)).ok());

  Result<Reader> reader = Reader::Open(path_, kFormat);
  ASSERT_TRUE(reader.ok());
  Frame frame;
  ASSERT_TRUE(reader->Next(frame));
  EXPECT_EQ(frame.outcome, FrameOutcome::kOk);
  EXPECT_EQ(frame.end, verified);
  ASSERT_TRUE(reader->Next(frame));
  EXPECT_EQ(frame.outcome, FrameOutcome::kTornTail);

  {
    Result<Appender> out =
        Appender::Open(path_, reader->bytes().substr(0, verified));
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->Append(1, "again").ok());
  }
  Result<Reader> again = Reader::Open(path_, kFormat);
  ASSERT_TRUE(again.ok());
  const uint8_t order[] = {1, 1};
  Result<std::vector<std::string_view>> frames = again->ReadSequence(order);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  EXPECT_EQ((*frames)[0], "kept");
  EXPECT_EQ((*frames)[1], "again");
}

TEST_F(AppenderTest, MissingFileIsAnIoError) {
  Result<Reader> reader = Reader::Open(path_ + ".missing", kFormat);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kelpie::record_file
