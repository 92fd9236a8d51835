#include "ml/optimizer.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace kelpie {
namespace {

TEST(RowAdagradTest, FirstStepHasUnitScale) {
  // With zero accumulator, step = lr * g / (|g| + eps) = lr * sign(g).
  Matrix params(2, 3);
  RowAdagrad opt(2, 3, /*learning_rate=*/0.5f);
  std::vector<float> grad{1.0f, -2.0f, 0.0f};
  opt.Step(params, 0, grad);
  EXPECT_NEAR(params.At(0, 0), -0.5f, 1e-4);
  EXPECT_NEAR(params.At(0, 1), +0.5f, 1e-4);
  EXPECT_NEAR(params.At(0, 2), 0.0f, 1e-6);
  // Row 1 untouched.
  EXPECT_FLOAT_EQ(params.At(1, 0), 0.0f);
}

TEST(RowAdagradTest, RepeatedGradientsShrinkSteps) {
  Matrix params(1, 1);
  RowAdagrad opt(1, 1, 1.0f);
  std::vector<float> grad{1.0f};
  opt.Step(params, 0, grad);
  float first_step = -params.At(0, 0);
  float before = params.At(0, 0);
  opt.Step(params, 0, grad);
  float second_step = before - params.At(0, 0);
  EXPECT_LT(second_step, first_step);
  EXPECT_NEAR(second_step, first_step / std::sqrt(2.0f), 1e-3);
}

TEST(RowAdagradTest, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 with gradient 2(x - 3).
  Matrix params(1, 1);
  RowAdagrad opt(1, 1, 0.5f);
  for (int i = 0; i < 2000; ++i) {
    std::vector<float> grad{2.0f * (params.At(0, 0) - 3.0f)};
    opt.Step(params, 0, grad);
  }
  EXPECT_NEAR(params.At(0, 0), 3.0f, 0.05);
}

TEST(RowAdagradTest, StepSpanMatchesStepOnSameState) {
  Matrix a(1, 2), b(1, 2);
  RowAdagrad opt_a(1, 2, 0.1f), opt_b(1, 2, 0.1f);
  std::vector<float> grad{0.5f, -0.5f};
  opt_a.Step(a, 0, grad);
  std::vector<float> row(2, 0.0f);
  opt_b.StepSpan(row, 0, grad);
  EXPECT_FLOAT_EQ(a.At(0, 0), row[0]);
  EXPECT_FLOAT_EQ(a.At(0, 1), row[1]);
}

TEST(DenseAdamTest, StepDirectionOpposesGradient) {
  Matrix params(1, 2);
  DenseAdam opt(1, 2, 0.1f);
  std::vector<float> grad{1.0f, -1.0f};
  opt.Step(params, grad);
  EXPECT_LT(params.At(0, 0), 0.0f);
  EXPECT_GT(params.At(0, 1), 0.0f);
}

TEST(DenseAdamTest, FirstStepMagnitudeApproxLearningRate) {
  // Adam's bias correction makes the first step ~lr regardless of gradient
  // scale.
  Matrix params(1, 1);
  DenseAdam opt(1, 1, 0.01f);
  std::vector<float> grad{1234.0f};
  opt.Step(params, grad);
  EXPECT_NEAR(params.At(0, 0), -0.01f, 1e-4);
}

TEST(DenseAdamTest, ConvergesOnQuadratic) {
  Matrix params(1, 1);
  DenseAdam opt(1, 1, 0.05f);
  for (int i = 0; i < 3000; ++i) {
    std::vector<float> grad{2.0f * (params.At(0, 0) + 2.0f)};
    opt.Step(params, grad);
  }
  EXPECT_NEAR(params.At(0, 0), -2.0f, 0.05);
}

}  // namespace
}  // namespace kelpie
