#ifndef KELPIE_ML_SERIALIZATION_H_
#define KELPIE_ML_SERIALIZATION_H_

#include <istream>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "math/matrix.h"

namespace kelpie {

/// Binary (de)serialization primitives for model parameters. All writers
/// emit little-endian plain-old-data with explicit size headers; readers
/// validate sizes and report corruption as Status errors instead of
/// crashing.

/// Writes a 64-bit size followed by raw floats.
Status WriteFloats(std::ostream& out, std::span<const float> values);

/// Reads a float array written by WriteFloats into `values` (resized).
/// `max_count` guards against corrupt headers.
Status ReadFloats(std::istream& in, std::vector<float>& values,
                  size_t max_count = (1ull << 30));

/// Writes rows, cols and the row-major payload.
Status WriteMatrix(std::ostream& out, const Matrix& m);

/// The largest matrix ReadMatrix accepts: each side at most 2^24, at most
/// 2^30 floats in all. Model construction applies the same bound.
bool MatrixWithinLimits(uint64_t rows, uint64_t cols);

/// Reads a matrix written by WriteMatrix; shape is restored from the
/// stream. InvalidArgument when the shape exceeds MatrixWithinLimits.
Status ReadMatrix(std::istream& in, Matrix& m);

/// Writes/reads a 64-bit unsigned scalar.
Status WriteU64(std::ostream& out, uint64_t value);
Status ReadU64(std::istream& in, uint64_t& value);

/// Writes/reads a length-prefixed string.
Status WriteString(std::ostream& out, std::string_view s);
Status ReadString(std::istream& in, std::string& s, size_t max_len = 4096);

}  // namespace kelpie

#endif  // KELPIE_ML_SERIALIZATION_H_
