#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"

namespace kelpie {

namespace {

std::string Errno(int err) { return std::strerror(err); }

Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed: " + Errno(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Failure here is not fatal: the data file is already
/// synced, and some filesystems reject directory fsync.
void SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open " + tmp + ": " + Errno(errno));
  }

  size_t to_write = contents.size();
  bool injected_partial = failpoint::Fire("atomic_file.partial_write");
  if (injected_partial) to_write = contents.size() / 2;

  Status s = WriteAll(fd, contents.data(), to_write);
  if (s.ok() && injected_partial) {
    s = Status::IoError("injected partial write to " + tmp);
  }
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IoError("fsync " + tmp + ": " + Errno(errno));
  }
  if (::close(fd) != 0 && s.ok()) {
    s = Status::IoError("close " + tmp + ": " + Errno(errno));
  }
  if (s.ok() && failpoint::Fire("atomic_file.rename")) {
    s = Status::IoError("injected rename failure for " + tmp);
  }
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = Status::IoError("rename " + tmp + " -> " + path + ": " + Errno(errno));
  }
  if (!s.ok()) {
    std::remove(tmp.c_str());  // destination untouched
    return s;
  }
  SyncParentDir(path);
  return Status::Ok();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string contents;
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) contents.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    contents.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::IoError("read failed: " + path);
  }
  return contents;
}

}  // namespace kelpie
