#ifndef KELPIE_COMMON_CRC32C_H_
#define KELPIE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace kelpie {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum storage engines use to frame on-disk records (LevelDB, Kudu,
/// iSCSI). common/record_file.h is the only code that checksums on-disk
/// headers and frames with it; the other callers hash setup fingerprints
/// and run ids.

/// CRC32C of `size` bytes at `data`.
uint32_t Crc32c(const void* data, size_t size);

/// Convenience overload for string-like payloads.
inline uint32_t Crc32c(std::string_view s) { return Crc32c(s.data(), s.size()); }

/// Extends a running CRC with more bytes: Extend(Crc32c(a), b) ==
/// Crc32c(a+b). Pass the previous return value unchanged (the masking
/// against the initial/final XOR happens internally).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

}  // namespace kelpie

#endif  // KELPIE_COMMON_CRC32C_H_
