#include "ml/optimizer.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

/// Touched-row indices in ascending order, so serialized sparse state is a
/// pure function of the logical state (map iteration order is not).
template <typename Map>
std::vector<size_t> SortedKeys(const Map& map) {
  std::vector<size_t> keys;
  keys.reserve(map.size());
  for (const auto& [row, unused] : map) keys.push_back(row);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

void RowAdagrad::Step(Matrix& params, size_t row,
                      std::span<const float> grad) {
  StepSpan(params.Row(row), row, grad);
}

void RowAdagrad::StepSpan(std::span<float> params, size_t row,
                          std::span<const float> grad) {
  KELPIE_DCHECK(params.size() == grad.size());
  std::span<float> acc = accum_.Row(row);
  const float lr = learning_rate_ * lr_scale_;
  for (size_t i = 0; i < params.size(); ++i) {
    acc[i] += grad[i] * grad[i];
    params[i] -= lr * grad[i] / (std::sqrt(acc[i]) + epsilon_);
  }
}

void DenseAdam::Step(Matrix& params, std::span<const float> grad) {
  StepSpan(params.Data(), grad);
}

void DenseAdam::StepSpan(std::span<float> params, std::span<const float> grad) {
  KELPIE_DCHECK(params.size() == grad.size());
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  std::span<float> p = params;
  std::span<float> m = m_.Data();
  std::span<float> v = v_.Data();
  const float lr = learning_rate_ * lr_scale_;
  for (size_t i = 0; i < p.size(); ++i) {
    m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad[i];
    v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad[i] * grad[i];
    float m_hat = static_cast<float>(m[i] / bias1);
    float v_hat = static_cast<float>(v[i] / bias2);
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon_);
  }
}

std::span<float> SparseRowAdagrad::AccumRow(size_t row) {
  KELPIE_DCHECK(row < rows_);
  std::vector<float>& acc = accum_[row];
  if (acc.empty()) acc.assign(cols_, 0.0f);
  return acc;
}

void SparseRowAdagrad::Step(Matrix& params, size_t row,
                            std::span<const float> grad) {
  StepSpan(params.Row(row), row, grad);
}

void SparseRowAdagrad::StepSpan(std::span<float> params, size_t row,
                                std::span<const float> grad) {
  KELPIE_DCHECK(params.size() == grad.size());
  // Identical arithmetic to RowAdagrad::StepSpan; only the accumulator
  // storage differs, and a freshly materialized row is the zeros a dense
  // accumulator row would hold at this point.
  std::span<float> acc = AccumRow(row);
  const float lr = learning_rate_ * lr_scale_;
  for (size_t i = 0; i < params.size(); ++i) {
    acc[i] += grad[i] * grad[i];
    params[i] -= lr * grad[i] / (std::sqrt(acc[i]) + epsilon_);
  }
}

bool SparseRowAdagrad::AllFinite() const {
  for (const auto& [row, acc] : accum_) {
    for (float v : acc) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

std::string SparseRowAdagrad::SaveState() const {
  std::ostringstream os;
  if (!WriteU64(os, rows_).ok() || !WriteU64(os, cols_).ok() ||
      !WriteU64(os, accum_.size()).ok()) {
    return {};
  }
  for (size_t row : SortedKeys(accum_)) {
    if (!WriteU64(os, row).ok()) return {};
    if (!WriteFloats(os, accum_.at(row)).ok()) return {};
  }
  return std::move(os).str();
}

bool SparseRowAdagrad::RestoreState(std::string_view blob) {
  if (blob.empty()) {
    accum_.clear();
    return true;
  }
  std::istringstream in{std::string(blob)};
  uint64_t rows = 0, cols = 0, count = 0;
  if (!ReadU64(in, rows).ok() || !ReadU64(in, cols).ok() ||
      !ReadU64(in, count).ok()) {
    return false;
  }
  if (rows != rows_ || cols != cols_ || count > rows_) return false;
  std::unordered_map<size_t, std::vector<float>> restored;
  restored.reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    std::vector<float> acc;
    if (!ReadU64(in, row).ok() || !ReadFloats(in, acc).ok()) return false;
    // Strictly ascending indices: rejects duplicates and non-canonical
    // encodings in one check.
    if (row >= rows_ || (i > 0 && row <= prev) || acc.size() != cols_) {
      return false;
    }
    prev = row;
    restored.emplace(static_cast<size_t>(row), std::move(acc));
  }
  accum_ = std::move(restored);
  return true;
}

std::string ComposeSparseBlobs(const std::vector<std::string>& blobs) {
  std::ostringstream os;
  if (!WriteU64(os, blobs.size()).ok()) return {};
  for (const std::string& blob : blobs) {
    if (!WriteU64(os, blob.size()).ok()) return {};
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!os) return {};
  }
  return std::move(os).str();
}

bool SplitSparseBlobs(std::string_view blob, size_t expected,
                      std::vector<std::string>& out) {
  out.assign(expected, std::string());
  if (blob.empty()) return true;
  std::istringstream in{std::string(blob)};
  uint64_t count = 0;
  if (!ReadU64(in, count).ok() || count != expected) return false;
  for (size_t i = 0; i < expected; ++i) {
    uint64_t size = 0;
    if (!ReadU64(in, size).ok() || size > blob.size()) return false;
    out[i].resize(size);
    in.read(out[i].data(), static_cast<std::streamsize>(size));
    if (!in) return false;
  }
  // Trailing bytes mean the frame disagrees with its own count.
  return in.peek() == std::istringstream::traits_type::eof();
}

}  // namespace kelpie
