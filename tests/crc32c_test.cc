#include "common/crc32c.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace kelpie {
namespace {

/// The bitwise definition of CRC32C, one byte at a time: the reference the
/// table-driven implementation must match.
uint32_t ReferenceCrc32c(const unsigned char* p, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

/// Deterministic pseudo-random bytes.
std::vector<unsigned char> RandomBytes(size_t size) {
  std::vector<unsigned char> bytes(size);
  uint64_t x = 0x243F6A8885A308D3ULL;
  for (unsigned char& b : bytes) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<unsigned char>(x >> 56);
  }
  return bytes;
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c(std::string_view()), 0u);
}

TEST(Crc32cTest, KnownVectors) {
  // The classic check value for CRC32C (RFC 3720 / Castagnoli).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // iSCSI test vectors: 32 bytes of zeros and 32 bytes of 0xFF.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  std::string ones(32, '\xFF');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string a = "hello, ";
  const std::string b = "world";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b.data(), b.size()), Crc32c(a + b));
}

TEST(Crc32cTest, ExtendByteByByteMatchesOneShot) {
  const std::string data = "incremental checksumming";
  uint32_t crc = 0;
  for (char c : data) {
    crc = Crc32cExtend(crc, &c, 1);
  }
  EXPECT_EQ(crc, Crc32c(data));
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::string data = "some serialized payload bytes";
  const uint32_t original = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string corrupted = data;
    corrupted[i] ^= 0x01;
    EXPECT_NE(Crc32c(corrupted), original) << "flip at byte " << i;
  }
}

TEST(Crc32cTest, MatchesReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 1024;
  constexpr size_t kOffsets = 8;
  const std::vector<unsigned char> source = RandomBytes(kMaxLength + kOffsets);
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      // A heap block that ends exactly at the input's last byte, so a
      // sanitizer flags any read past it.
      auto block = std::make_unique<unsigned char[]>(offset + length);
      std::copy_n(source.data() + offset, length, block.get() + offset);
      const unsigned char* p = block.get() + offset;
      ASSERT_EQ(Crc32c(p, length), ReferenceCrc32c(p, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesReferenceAtEverySplit) {
  constexpr size_t kLength = 1024;
  const std::vector<unsigned char> bytes = RandomBytes(kLength);
  const uint32_t want = ReferenceCrc32c(bytes.data(), kLength);
  for (size_t split = 0; split <= kLength; ++split) {
    const uint32_t head = Crc32c(bytes.data(), split);
    ASSERT_EQ(Crc32cExtend(head, bytes.data() + split, kLength - split), want)
        << "split " << split;
  }
}

}  // namespace
}  // namespace kelpie
