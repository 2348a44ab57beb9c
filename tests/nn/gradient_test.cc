#include "nn/gradient_check.h"

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sequential.h"

namespace magneto::nn {
namespace {

/// End-to-end parameter gradient checks: backprop through the full network
/// against central differences, for each loss MAGNETO uses.

Matrix RandomBatch(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return m;
}

TEST(NetworkGradientTest, MlpWithDistillationMse) {
  Rng rng(1);
  Sequential net = BuildMlp(5, {7, 3}, &rng);
  Matrix x = RandomBatch(4, 5, 2);
  Matrix target = RandomBatch(4, 3, 3);
  ForwardWorkspace ws;
  auto loss_fn = [&]() {
    const Matrix& out = net.Forward(x, &ws, /*record=*/true);
    auto res = DistillationMse(out, target);
    net.Backward(res.grad, &ws);
    return res.loss;
  };
  auto check = CheckParameterGradients(&net, loss_fn, 1e-2, 12);
  EXPECT_GT(check.checked, 20u);
  EXPECT_TRUE(check.Passed(5e-2)) << "rel err " << check.max_rel_error;
}

TEST(NetworkGradientTest, SiameseContrastiveThroughSharedWeights) {
  // The Siamese trick: one forward over the stacked pair batch. The
  // parameter gradient must match finite differences of the pair loss.
  // Finite differences require a locally smooth loss, so this test stacks
  // two Linear layers (no ReLU kinks) and uses a margin far beyond the
  // embedding scale (every negative pair stays strictly inside the active
  // hinge region).
  Rng rng(3);
  Sequential net;
  net.Add(std::make_unique<Linear>(4, 6, &rng));
  net.Add(std::make_unique<Linear>(6, 3, &rng));
  Matrix a = RandomBatch(3, 4, 4);
  Matrix b = RandomBatch(3, 4, 5);
  const std::vector<uint8_t> same{1, 0, 1};
  ForwardWorkspace ws;
  auto loss_fn = [&]() {
    Matrix stacked = VStack(a, b);
    const Matrix& emb = net.Forward(stacked, &ws, /*record=*/true);
    Matrix emb_a = emb.RowSlice(0, 3);
    Matrix emb_b = emb.RowSlice(3, 6);
    auto res = ContrastiveLoss(emb_a, emb_b, same, 10.0);
    net.Backward(VStack(res.grad_a, res.grad_b), &ws);
    return res.loss;
  };
  auto check = CheckParameterGradients(&net, loss_fn, 1e-3, 10);
  EXPECT_TRUE(check.Passed(5e-2)) << "rel err " << check.max_rel_error;
}

TEST(NetworkGradientTest, JointContrastivePlusDistillation) {
  // The incremental-update objective: contrastive on pairs plus lambda * MSE
  // distillation toward a frozen teacher, accumulated in one step.
  Rng rng(7);
  Sequential net = BuildMlp(4, {5, 2}, &rng);
  Rng teacher_rng(8);
  Sequential teacher = BuildMlp(4, {5, 2}, &teacher_rng);

  Matrix a = RandomBatch(2, 4, 9);
  Matrix b = RandomBatch(2, 4, 10);
  Matrix distill_x = RandomBatch(3, 4, 11);
  ForwardWorkspace teacher_ws;
  Matrix targets = teacher.Forward(distill_x, &teacher_ws);
  const std::vector<uint8_t> same{1, 0};
  const double lambda = 0.7;

  ForwardWorkspace ws;
  auto loss_fn = [&]() {
    Matrix stacked = VStack(a, b);
    const Matrix& emb = net.Forward(stacked, &ws, /*record=*/true);
    auto contrastive = ContrastiveLoss(emb.RowSlice(0, 2), emb.RowSlice(2, 4),
                                       same, 1.0);
    net.Backward(VStack(contrastive.grad_a, contrastive.grad_b), &ws);

    const Matrix& student = net.Forward(distill_x, &ws, /*record=*/true);
    auto distill = DistillationMse(student, targets);
    distill.grad.Scale(static_cast<float>(lambda));
    net.Backward(distill.grad, &ws);

    return contrastive.loss + lambda * distill.loss;
  };
  auto check = CheckParameterGradients(&net, loss_fn, 1e-2, 8);
  EXPECT_TRUE(check.Passed(6e-2)) << "rel err " << check.max_rel_error;
}

}  // namespace
}  // namespace magneto::nn
