#ifndef KELPIE_COMMON_ATOMIC_FILE_H_
#define KELPIE_COMMON_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace kelpie {

/// Writes `contents` to `path` crash-safely: the bytes go to a temp file in
/// the same directory, which is fsynced, then atomically renamed over the
/// destination. A crash (or injected I/O failure) at any point leaves either
/// the previous file intact or the complete new file — never a torn mix.
/// On failure the temp file is removed and the destination is untouched.
///
/// Failpoints (see failpoint.h):
///   "atomic_file.partial_write" — only half of `contents` reaches the temp
///       file before the write "fails"; simulates a crash mid-write.
///   "atomic_file.rename"        — the temp file is fully written and synced
///       but the final rename "fails"; simulates a crash between flush and
///       publish.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Reads the whole file at `path` (binary). IoError when it cannot be
/// opened or read.
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace kelpie

#endif  // KELPIE_COMMON_ATOMIC_FILE_H_
