#include "ml/serialization.h"

namespace kelpie {

Status WriteU64(std::ostream& out, uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  if (!out) return Status::IoError("write failed (u64)");
  return Status::Ok();
}

Status ReadU64(std::istream& in, uint64_t& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) return Status::IoError("read failed (u64)");
  return Status::Ok();
}

Status WriteString(std::ostream& out, std::string_view s) {
  KELPIE_RETURN_IF_ERROR(WriteU64(out, s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
  if (!out) return Status::IoError("write failed (string)");
  return Status::Ok();
}

Status ReadString(std::istream& in, std::string& s, size_t max_len) {
  uint64_t len = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, len));
  if (len > max_len) {
    return Status::InvalidArgument("string length " + std::to_string(len) +
                                   " exceeds limit (corrupt stream?)");
  }
  s.resize(len);
  in.read(s.data(), static_cast<std::streamsize>(len));
  if (!in) return Status::IoError("read failed (string payload)");
  return Status::Ok();
}

Status WriteFloats(std::ostream& out, std::span<const float> values) {
  KELPIE_RETURN_IF_ERROR(WriteU64(out, values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
  if (!out) return Status::IoError("write failed (float payload)");
  return Status::Ok();
}

Status ReadFloats(std::istream& in, std::vector<float>& values,
                  size_t max_count) {
  uint64_t count = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, count));
  if (count > max_count) {
    return Status::InvalidArgument("float count " + std::to_string(count) +
                                   " exceeds limit (corrupt stream?)");
  }
  values.resize(count);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) return Status::IoError("read failed (float payload)");
  return Status::Ok();
}

Status WriteMatrix(std::ostream& out, const Matrix& m) {
  KELPIE_RETURN_IF_ERROR(WriteU64(out, m.rows()));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, m.cols()));
  out.write(reinterpret_cast<const char*>(m.Data().data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!out) return Status::IoError("write failed (matrix payload)");
  return Status::Ok();
}

bool MatrixWithinLimits(uint64_t rows, uint64_t cols) {
  constexpr uint64_t kMaxSide = 1ull << 24;
  // Each side is checked first, so the product cannot overflow.
  return rows <= kMaxSide && cols <= kMaxSide && rows * cols <= (1ull << 30);
}

Status ReadMatrix(std::istream& in, Matrix& m) {
  uint64_t rows = 0, cols = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, rows));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, cols));
  if (!MatrixWithinLimits(rows, cols)) {
    return Status::InvalidArgument("matrix shape " + std::to_string(rows) +
                                   "x" + std::to_string(cols) +
                                   " exceeds limits (corrupt stream?)");
  }
  m.Reset(rows, cols);
  in.read(reinterpret_cast<char*>(m.Data().data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) return Status::IoError("read failed (matrix payload)");
  return Status::Ok();
}

}  // namespace kelpie
