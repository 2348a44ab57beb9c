#include "nn/workspace.h"

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/dropout.h"
#include "nn/gradient_check.h"
#include "nn/layer_norm.h"
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

/// One of every differentiable layer type.
Sequential EveryLayerNet(uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.Add(std::make_unique<Linear>(6, 8, &rng));
  net.Add(std::make_unique<LayerNorm>(8));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Linear>(8, 5, &rng));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(5, 4, &rng));
  net.Add(std::make_unique<Sigmoid>());
  return net;
}

TEST(WorkspaceTest, RecordedAndPingPongPathsBitIdentical) {
  Sequential net = EveryLayerNet(1);
  Matrix x = RandomBatch(4, 6, 2);
  ForwardWorkspace recorded_ws;
  ForwardWorkspace inference_ws;
  // Inference math with activation recording on vs the pure ping-pong path:
  // same layers, same kernels, so the outputs must match bit for bit.
  const Matrix& recorded =
      net.Forward(x, &recorded_ws, /*training=*/false, /*record=*/true);
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
  const Matrix& recorded =
      net.Forward(x, &ws_a, /*training=*/false, /*record=*/true);
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
    net.Forward(x, &ws, /*training=*/true);
    net.Backward(g, &ws);
  }
  const uint64_t before = Matrix::AllocationCount();
  for (int i = 0; i < 10; ++i) {
    net.Forward(x, &ws, /*training=*/true);
    net.Backward(g, &ws);
  }
  EXPECT_EQ(Matrix::AllocationCount(), before)
      << "steady-state training forward + backward must not allocate";
}

TEST(WorkspaceTest, DropoutMaskMatchesReferenceStream) {
  const double p = 0.4;
  const uint64_t seed = 1234;
  Dropout dropout(p, seed);
  Matrix x(2, 50);
  x.Fill(1.0f);
  LayerState state;
  Matrix y;
  dropout.Forward(x, /*training=*/true, &state, &y);
  // The mask stream is defined: one Bernoulli(p) draw per element in
  // row-major order from Rng(seed), survivors scaled by 1/(1-p).
  Rng reference(seed);
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
  for (size_t i = 0; i < y.size(); ++i) {
    const float expected = reference.Bernoulli(p) ? 0.0f : keep_scale;
    ASSERT_EQ(y.data()[i], expected) << "element " << i;
  }
}

TEST(WorkspaceTest, DropoutStreamIsPerWorkspace) {
  Rng rng(11);
  Sequential net = BuildMlp(6, {32, 4}, &rng, /*dropout_p=*/0.5);
  Matrix x(1, 6);
  x.Fill(1.0f);
  ForwardWorkspace ws_a;
  ForwardWorkspace ws_b;
  // Fresh workspaces replay the stream from the layer's seed: identical.
  Matrix first_a = net.Forward(x, &ws_a, /*training=*/true);
  Matrix first_b = net.Forward(x, &ws_b, /*training=*/true);
  EXPECT_TRUE(BitIdentical(first_a, first_b));
  // Within one workspace the stream advances: a second training forward
  // draws a different mask (overwhelmingly likely at 32 units, p=0.5).
  Matrix second_a = net.Forward(x, &ws_a, /*training=*/true);
  EXPECT_FALSE(BitIdentical(first_a, second_a));
}

TEST(WorkspaceTest, WorkspaceMovedToDifferentNetworkReseedsDropout) {
  Rng rng_a(21);
  Rng rng_b(22);
  Sequential net_a = BuildMlp(6, {32, 4}, &rng_a, /*dropout_p=*/0.5);
  Sequential net_b = BuildMlp(6, {32, 4}, &rng_b, /*dropout_p=*/0.5);
  Matrix x(1, 6);
  x.Fill(1.0f);
  ForwardWorkspace reused;
  net_a.Forward(x, &reused, /*training=*/true);
  // The reused workspace carries net_a's advanced stream; the seed check
  // must reset it so net_b sees the same masks a fresh workspace would.
  Matrix via_reused = net_b.Forward(x, &reused, /*training=*/true);
  ForwardWorkspace fresh;
  Matrix via_fresh = net_b.Forward(x, &fresh, /*training=*/true);
  EXPECT_TRUE(BitIdentical(via_reused, via_fresh));
}

TEST(WorkspaceTest, InferenceModeRecordSupportsBackward) {
  // The EWC Fisher pattern: training=false (dropout off) + record=true
  // (activations kept) must produce the same gradients as a training
  // forward on a dropout-free net.
  Sequential net = EveryLayerNet(13);
  Sequential twin = EveryLayerNet(13);
  Matrix x = RandomBatch(3, 6, 14);
  Matrix g(3, 4);
  g.Fill(0.5f);

  ForwardWorkspace ws;
  net.ZeroGrad();
  net.Forward(x, &ws, /*training=*/false, /*record=*/true);
  net.Backward(g, &ws);

  ForwardWorkspace twin_ws;
  twin.ZeroGrad();
  twin.Forward(x, &twin_ws, /*training=*/true);
  twin.Backward(g, &twin_ws);

  auto grads = net.Grads();
  auto twin_grads = twin.Grads();
  ASSERT_EQ(grads.size(), twin_grads.size());
  for (size_t i = 0; i < grads.size(); ++i) {
    EXPECT_TRUE(BitIdentical(*grads[i], *twin_grads[i])) << "grad " << i;
  }
}

TEST(WorkspaceTest, GradientCheckThroughWorkspacePath) {
  Rng rng(15);
  Sequential net;
  net.Add(std::make_unique<Linear>(4, 6, &rng));
  net.Add(std::make_unique<LayerNorm>(6));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(6, 3, &rng));
  Matrix x = RandomBatch(3, 4, 16);
  Matrix target = RandomBatch(3, 3, 17);
  ForwardWorkspace ws;
  auto loss_fn = [&]() {
    const Matrix& out = net.Forward(x, &ws, /*training=*/true);
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
  net.Forward(x, &ws, /*training=*/true);
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
