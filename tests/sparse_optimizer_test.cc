// Unit tests of the sparse optimizer state (DESIGN.md §16): byte-identity
// with the dense optimizers on touched rows, lazy materialization,
// deterministic serialization and validate-before-mutate restore.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "ml/optimizer.h"

namespace kelpie {
namespace {

std::vector<float> RandomVec(Rng& rng, size_t n) {
  std::vector<float> out(n);
  for (float& x : out) x = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  return out;
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (float& x : m.Data()) {
    x = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  return m;
}

bool BitwiseEqual(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SparseRowAdagradTest, MatchesDenseOnTouchedRows) {
  constexpr size_t kRows = 12, kCols = 8;
  Rng rng(3);
  Matrix dense_params = RandomMatrix(rng, kRows, kCols);
  Matrix sparse_params = dense_params;
  RowAdagrad dense(kRows, kCols, 0.1f);
  SparseRowAdagrad sparse(kRows, kCols, 0.1f);

  // A scattered schedule, including repeats, never touching rows 0 and 11.
  const size_t schedule[] = {3, 7, 3, 5, 9, 7, 7, 1, 5, 3};
  for (size_t row : schedule) {
    std::vector<float> grad = RandomVec(rng, kCols);
    dense.Step(dense_params, row, grad);
    sparse.Step(sparse_params, row, grad);
  }
  EXPECT_TRUE(BitwiseEqual(dense_params.Data(), sparse_params.Data()));
  EXPECT_EQ(sparse.touched_rows(), 5u);  // distinct rows {1, 3, 5, 7, 9}
}

TEST(SparseRowAdagradTest, SameRowTwiceInOneBatchAccumulates) {
  // The same row receiving two gradients back to back (a batch containing
  // one entity twice) must see the second step conditioned on the first
  // step's accumulator — identical to the dense optimizer.
  constexpr size_t kCols = 4;
  Rng rng(5);
  Matrix dense_params = RandomMatrix(rng, 2, kCols);
  Matrix sparse_params = dense_params;
  RowAdagrad dense(2, kCols, 0.2f);
  SparseRowAdagrad sparse(2, kCols, 0.2f);
  std::vector<float> g1 = RandomVec(rng, kCols);
  std::vector<float> g2 = RandomVec(rng, kCols);
  dense.Step(dense_params, 1, g1);
  dense.Step(dense_params, 1, g2);
  sparse.Step(sparse_params, 1, g1);
  sparse.Step(sparse_params, 1, g2);
  EXPECT_TRUE(BitwiseEqual(dense_params.Data(), sparse_params.Data()));
  EXPECT_EQ(sparse.touched_rows(), 1u);
}

TEST(SparseRowAdagradTest, StepSpanMatchesStepOnSameState) {
  constexpr size_t kCols = 6;
  Rng rng(9);
  std::vector<float> row_a = RandomVec(rng, kCols);
  std::vector<float> row_b = row_a;
  std::vector<float> grad = RandomVec(rng, kCols);
  Matrix table(1, kCols);
  std::copy(row_a.begin(), row_a.end(), table.Row(0).begin());

  SparseRowAdagrad a(1, kCols, 0.3f);
  SparseRowAdagrad b(1, kCols, 0.3f);
  a.Step(table, 0, grad);
  b.StepSpan(row_b, 0, grad);
  EXPECT_TRUE(BitwiseEqual(table.Row(0), row_b));
}

TEST(SparseRowAdagradTest, SaveRestoreRoundTripsAndStaysDeterministic) {
  constexpr size_t kRows = 10, kCols = 4;
  Rng rng(11);
  Matrix params = RandomMatrix(rng, kRows, kCols);
  Matrix params_copy = params;
  SparseRowAdagrad opt(kRows, kCols, 0.1f);
  for (size_t row : {2u, 8u, 2u, 4u}) {
    opt.Step(params, row, RandomVec(rng, kCols));
  }
  const std::string blob = opt.SaveState();
  EXPECT_EQ(blob, opt.SaveState());  // serialization is a pure function

  SparseRowAdagrad restored(kRows, kCols, 0.1f);
  ASSERT_TRUE(restored.RestoreState(blob));
  EXPECT_EQ(restored.touched_rows(), opt.touched_rows());
  EXPECT_EQ(restored.SaveState(), blob);

  // Continue both from the same state: future steps must agree bitwise.
  Rng grads(13);
  Matrix continued = params;
  for (size_t row : {4u, 6u, 2u}) {
    std::vector<float> g = RandomVec(grads, kCols);
    opt.Step(params, row, g);
    restored.Step(continued, row, g);
  }
  EXPECT_TRUE(BitwiseEqual(params.Data(), continued.Data()));
  (void)params_copy;
}

TEST(SparseRowAdagradTest, RestoreValidatesBeforeMutating) {
  constexpr size_t kRows = 6, kCols = 3;
  Rng rng(17);
  Matrix params = RandomMatrix(rng, kRows, kCols);
  SparseRowAdagrad opt(kRows, kCols, 0.1f);
  opt.Step(params, 2, RandomVec(rng, kCols));
  const std::string before = opt.SaveState();

  // Truncated blob: rejected, state untouched.
  EXPECT_FALSE(opt.RestoreState(std::string_view(before).substr(
      0, before.size() - 3)));
  EXPECT_EQ(opt.SaveState(), before);

  // Wrong shape: a blob saved from a differently shaped optimizer.
  SparseRowAdagrad other(kRows + 1, kCols, 0.1f);
  Matrix other_params = RandomMatrix(rng, kRows + 1, kCols);
  other.Step(other_params, 0, RandomVec(rng, kCols));
  EXPECT_FALSE(opt.RestoreState(other.SaveState()));
  EXPECT_EQ(opt.SaveState(), before);

  // Empty blob: fresh state.
  EXPECT_TRUE(opt.RestoreState(std::string_view()));
  EXPECT_EQ(opt.touched_rows(), 0u);
}

TEST(SparseBlobsTest, ComposeSplitRoundTrip) {
  const std::vector<std::string> parts = {"alpha", "", "gamma-longer"};
  const std::string blob = ComposeSparseBlobs(parts);
  std::vector<std::string> split;
  ASSERT_TRUE(SplitSparseBlobs(blob, parts.size(), split));
  EXPECT_EQ(split, parts);
}

TEST(SparseBlobsTest, EmptyInputYieldsExpectedEmptyParts) {
  std::vector<std::string> split;
  ASSERT_TRUE(SplitSparseBlobs(std::string_view(), 3, split));
  ASSERT_EQ(split.size(), 3u);
  for (const std::string& s : split) EXPECT_TRUE(s.empty());
}

TEST(SparseBlobsTest, RejectsCountMismatchAndTrailingBytes) {
  const std::string blob = ComposeSparseBlobs({"a", "b"});
  std::vector<std::string> split;
  EXPECT_FALSE(SplitSparseBlobs(blob, 3, split));
  EXPECT_FALSE(SplitSparseBlobs(blob + "x", 2, split));
  EXPECT_FALSE(SplitSparseBlobs(std::string_view(blob).substr(
                                    0, blob.size() - 1),
                                2, split));
}

}  // namespace
}  // namespace kelpie
