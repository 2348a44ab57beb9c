#include "nn/loss.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/gradient_check.h"

namespace magneto::nn {
namespace {

TEST(ContrastiveLossTest, IdenticalPositivePairHasZeroLoss) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b = a;
  auto res = ContrastiveLoss(a, b, {1}, 1.0);
  EXPECT_DOUBLE_EQ(res.loss, 0.0);
  EXPECT_FLOAT_EQ(res.grad_a.AbsMax(), 0.0f);
}

TEST(ContrastiveLossTest, FarNegativePairHasZeroLoss) {
  Matrix a(1, 2, {0, 0});
  Matrix b(1, 2, {10, 0});
  auto res = ContrastiveLoss(a, b, {0}, 1.0);
  EXPECT_DOUBLE_EQ(res.loss, 0.0);
  EXPECT_FLOAT_EQ(res.grad_a.AbsMax(), 0.0f);
}

TEST(ContrastiveLossTest, ClosePositivePairPenalty) {
  Matrix a(1, 2, {0, 0});
  Matrix b(1, 2, {3, 4});  // d = 5
  auto res = ContrastiveLoss(a, b, {1}, 1.0);
  EXPECT_NEAR(res.loss, 0.5 * 25.0, 1e-5);
  // Gradient pulls a toward b.
  EXPECT_LT(res.grad_a.At(0, 0), 0.0f);
  EXPECT_GT(res.grad_b.At(0, 0), 0.0f);
}

TEST(ContrastiveLossTest, CloseNegativePairPenalty) {
  Matrix a(1, 2, {0, 0});
  Matrix b(1, 2, {0.6f, 0});  // d = 0.6 < margin 1
  auto res = ContrastiveLoss(a, b, {0}, 1.0);
  EXPECT_NEAR(res.loss, 0.5 * 0.16, 1e-5);
  // The descent step -grad moves a away from b (b sits at +x of a), so the
  // gradient itself points toward b: positive for a, negative for b.
  EXPECT_GT(res.grad_a.At(0, 0), 0.0f);
  EXPECT_LT(res.grad_b.At(0, 0), 0.0f);
}

TEST(ContrastiveLossTest, BatchAveraging) {
  Matrix a(2, 2, {0, 0, 0, 0});
  Matrix b(2, 2, {3, 4, 3, 4});
  auto res = ContrastiveLoss(a, b, {1, 1}, 1.0);
  EXPECT_NEAR(res.loss, 0.5 * 25.0, 1e-4);  // mean over identical pairs
}

TEST(ContrastiveLossTest, GradientMatchesFiniteDifferencePositives) {
  Matrix a(2, 3, {0.1f, -0.2f, 0.3f, 0.5f, 0.0f, -0.4f});
  Matrix b(2, 3, {-0.1f, 0.4f, 0.2f, 0.3f, -0.2f, 0.1f});
  const std::vector<uint8_t> same{1, 0};
  auto check = CheckInputGradient(
      a,
      [&](const Matrix& input, Matrix* grad) {
        auto res = ContrastiveLoss(input, b, same, 1.0);
        *grad = res.grad_a;
        return res.loss;
      },
      1e-3, 6);
  EXPECT_TRUE(check.Passed(5e-2)) << "rel err " << check.max_rel_error;
}

TEST(DistillationMseTest, ZeroWhenStudentMatchesTeacher) {
  Matrix s(2, 3, {1, 2, 3, 4, 5, 6});
  auto res = DistillationMse(s, s);
  EXPECT_DOUBLE_EQ(res.loss, 0.0);
  EXPECT_FLOAT_EQ(res.grad.AbsMax(), 0.0f);
}

TEST(DistillationMseTest, LossAndGradient) {
  Matrix s(1, 2, {1, 1});
  Matrix t(1, 2, {0, 0});
  auto res = DistillationMse(s, t);
  EXPECT_NEAR(res.loss, 2.0, 1e-6);  // ||s - t||^2 / batch
  EXPECT_NEAR(res.grad.At(0, 0), 2.0, 1e-6);
}

TEST(DistillationMseTest, GradientMatchesFiniteDifference) {
  Matrix s(2, 4, {0.1f, 0.2f, -0.3f, 0.4f, -0.5f, 0.6f, 0.7f, -0.8f});
  Matrix t(2, 4, {0.0f, 0.1f, 0.1f, 0.3f, -0.2f, 0.5f, 0.9f, -0.6f});
  auto check = CheckInputGradient(
      s,
      [&](const Matrix& input, Matrix* grad) {
        auto res = DistillationMse(input, t);
        *grad = res.grad;
        return res.loss;
      },
      1e-3, 8);
  EXPECT_TRUE(check.Passed(5e-2)) << "rel err " << check.max_rel_error;
}

TEST(DistillationCosineTest, AlignedDirectionsGiveZero) {
  Matrix s(1, 2, {2, 0});
  Matrix t(1, 2, {5, 0});  // same direction, different scale
  auto res = DistillationCosine(s, t);
  EXPECT_NEAR(res.loss, 0.0, 1e-6);
}

TEST(DistillationCosineTest, OppositeDirectionsGiveTwo) {
  Matrix s(1, 2, {1, 0});
  Matrix t(1, 2, {-1, 0});
  auto res = DistillationCosine(s, t);
  EXPECT_NEAR(res.loss, 2.0, 1e-6);
}

TEST(DistillationCosineTest, GradientMatchesFiniteDifference) {
  Matrix s(2, 3, {0.5f, -0.3f, 0.8f, 0.2f, 0.9f, -0.4f});
  Matrix t(2, 3, {0.4f, -0.1f, 0.7f, -0.3f, 0.8f, 0.1f});
  auto check = CheckInputGradient(
      s,
      [&](const Matrix& input, Matrix* grad) {
        auto res = DistillationCosine(input, t);
        *grad = res.grad;
        return res.loss;
      },
      1e-3, 6);
  EXPECT_TRUE(check.Passed(5e-2)) << "rel err " << check.max_rel_error;
}

}  // namespace
}  // namespace magneto::nn
