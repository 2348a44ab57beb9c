#include "nn/workspace.h"

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/gradient_check.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/quantized_linear.h"
#include "nn/sequential.h"

namespace magneto::nn {
namespace {

/// Bitwise equality — the workspace refactor must not change a single ULP
/// anywhere, so every comparison here is memcmp, not EXPECT_NEAR.
bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix RandomBatch(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return m;
}

/// Both differentiable layer types, ReLU after every Linear.
Sequential EveryLayerNet(uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.Add(std::make_unique<Linear>(6, 8, &rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Linear>(8, 5, &rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Linear>(5, 4, &rng));
  net.Add(std::make_unique<Relu>());
  return net;
}

TEST(WorkspaceTest, RecordedAndPingPongPathsBitIdentical) {
  Sequential net = EveryLayerNet(1);
  Matrix x = RandomBatch(4, 6, 2);
  ForwardWorkspace recorded_ws;
  ForwardWorkspace inference_ws;
  // Inference math with activation recording on vs the pure ping-pong path:
  // same layers, same kernels, so the outputs must match bit for bit.
  const Matrix& recorded = net.Forward(x, &recorded_ws, /*record=*/true);
  const Matrix& inference = net.Forward(x, &inference_ws);
  EXPECT_TRUE(BitIdentical(recorded, inference));
}

TEST(WorkspaceTest, QuantizedLinearForwardBitIdenticalAcrossPaths) {
  Rng rng(3);
  Sequential net;
  net.Add(QuantizedLinear::FromLinear(Linear(6, 4, &rng)).value());
  net.Add(std::make_unique<Relu>());
  Matrix x = RandomBatch(3, 6, 4);
  ForwardWorkspace ws_a;
  ForwardWorkspace ws_b;
  const Matrix& recorded = net.Forward(x, &ws_a, /*record=*/true);
  const Matrix& inference = net.Forward(x, &ws_b);
  EXPECT_TRUE(BitIdentical(recorded, inference));
}

TEST(WorkspaceTest, RepeatedForwardsThroughOneWorkspaceBitIdentical) {
  Sequential net = EveryLayerNet(5);
  Matrix x = RandomBatch(4, 6, 6);
  ForwardWorkspace ws;
  Matrix first = net.Forward(x, &ws);
  for (int i = 0; i < 3; ++i) {
    // Buffer reuse (no fresh zero-filled matrices) must not leak stale
    // values into the result.
    EXPECT_TRUE(BitIdentical(first, net.Forward(x, &ws)));
  }
}

TEST(WorkspaceTest, TwoWorkspacesProduceIdenticalResults) {
  Sequential net = EveryLayerNet(7);
  Matrix x = RandomBatch(2, 6, 8);
  ForwardWorkspace ws_a;
  ForwardWorkspace ws_b;
  Matrix ya = net.Forward(x, &ws_a);
  Matrix yb = net.Forward(x, &ws_b);
  EXPECT_TRUE(BitIdentical(ya, yb));
}

TEST(WorkspaceTest, SteadyStateInferenceDoesNotAllocate) {
  Sequential net = EveryLayerNet(9);
  Matrix x = RandomBatch(8, 6, 10);
  ForwardWorkspace ws;
  // Warm up: buffers grow to their high-water shapes.
  net.Forward(x, &ws);
  net.Forward(x, &ws);
  const uint64_t before = Matrix::AllocationCount();
  for (int i = 0; i < 10; ++i) net.Forward(x, &ws);
  EXPECT_EQ(Matrix::AllocationCount(), before)
      << "steady-state inference forwards must reuse workspace buffers";
}

TEST(WorkspaceTest, SteadyStateBackwardDoesNotAllocate) {
  // A training step through a warmed workspace reuses every buffer: the
  // forward activations, the layers' backward scratch and the gradients.
  Sequential net = EveryLayerNet(31);
  Matrix x = RandomBatch(8, 6, 32);
  Matrix g = RandomBatch(8, 4, 33);
  ForwardWorkspace ws;
  for (int i = 0; i < 2; ++i) {
    net.Forward(x, &ws, /*record=*/true);
    net.Backward(g, &ws);
  }
  const uint64_t before = Matrix::AllocationCount();
  for (int i = 0; i < 10; ++i) {
    net.Forward(x, &ws, /*record=*/true);
    net.Backward(g, &ws);
  }
  EXPECT_EQ(Matrix::AllocationCount(), before)
      << "steady-state training forward + backward must not allocate";
}

TEST(WorkspaceTest, GradientCheckThroughWorkspacePath) {
  Rng rng(15);
  Sequential net;
  // Two Linear layers and no ReLU: finite differences need a smooth loss.
  net.Add(std::make_unique<Linear>(4, 6, &rng));
  net.Add(std::make_unique<Linear>(6, 3, &rng));
  Matrix x = RandomBatch(3, 4, 16);
  Matrix target = RandomBatch(3, 3, 17);
  ForwardWorkspace ws;
  auto loss_fn = [&]() {
    const Matrix& out = net.Forward(x, &ws, /*record=*/true);
    auto res = DistillationMse(out, target);
    net.Backward(res.grad, &ws);
    return res.loss;
  };
  auto check = CheckParameterGradients(&net, loss_fn, 1e-3, 10);
  EXPECT_TRUE(check.Passed(5e-2)) << "rel err " << check.max_rel_error;
}

TEST(WorkspaceDeathTest, BackwardWithoutRecordedForwardAborts) {
  Sequential net = EveryLayerNet(19);
  Matrix x = RandomBatch(2, 6, 20);
  ForwardWorkspace ws;
  net.Forward(x, &ws);  // inference path records nothing
  Matrix g(2, 4);
  EXPECT_DEATH(net.Backward(g, &ws), "Check failed");
}

TEST(WorkspaceDeathTest, BackwardWithForeignWorkspaceAborts) {
  Sequential net = EveryLayerNet(23);
  Sequential other = net.Clone();
  Matrix x = RandomBatch(2, 6, 24);
  ForwardWorkspace ws;
  net.Forward(x, &ws, /*record=*/true);
  Matrix g(2, 4);
  EXPECT_DEATH(other.Backward(g, &ws), "Check failed");
}

TEST(WorkspaceConcurrencyTest, ConcurrentConstForwardIsDeterministic) {
  // The point of the whole refactor: one immutable network, N threads, no
  // locks — every thread brings its own workspace and every result is
  // bit-identical to the single-threaded baseline.
  Sequential owned = EveryLayerNet(29);
  const Sequential& net = owned;
  Matrix x = RandomBatch(8, 6, 30);
  ForwardWorkspace baseline_ws;
  const Matrix baseline = net.Forward(x, &baseline_ws);

  constexpr size_t kThreads = 8;
  constexpr size_t kItersPerThread = 50;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ForwardWorkspace ws;
      int good = 0;
      for (size_t i = 0; i < kItersPerThread; ++i) {
        if (BitIdentical(baseline, net.Forward(x, &ws))) ++good;
      }
      ok[t] = good;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[t], static_cast<int>(kItersPerThread)) << "thread " << t;
  }
}

}  // namespace
}  // namespace magneto::nn
