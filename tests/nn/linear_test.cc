#include "nn/linear.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "nn/sequential.h"

namespace magneto::nn {
namespace {

TEST(LinearTest, ForwardComputesAffineMap) {
  Linear layer(2, 3);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5, 1]
  layer.SetWeightRowMajor(Matrix(2, 3, {1, 2, 3, 4, 5, 6}));
  layer.bias() = Matrix(1, 3, {0.5f, -0.5f, 1.0f});
  Matrix x(1, 2, {1, 2});
  Matrix y;
  layer.Forward(x, /*training=*/false, /*state=*/nullptr, &y);
  EXPECT_FLOAT_EQ(y.At(0, 0), 1 + 8 + 0.5f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 2 + 10 - 0.5f);
  EXPECT_FLOAT_EQ(y.At(0, 2), 3 + 12 + 1.0f);
}

TEST(LinearTest, ForwardBatches) {
  Linear layer(2, 2);
  layer.SetWeightRowMajor(Matrix(2, 2, {1, 0, 0, 1}));  // identity
  Matrix x(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix y;
  layer.Forward(x, /*training=*/false, /*state=*/nullptr, &y);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_FLOAT_EQ(y.At(2, 1), 6.0f);
}

TEST(LinearTest, BackwardShapesAndGradients) {
  Linear layer(2, 2);
  layer.SetWeightRowMajor(Matrix(2, 2, {1, 2, 3, 4}));
  Matrix x(1, 2, {1, 1});
  LayerState state;
  Matrix y;
  layer.Forward(x, /*training=*/true, &state, &y);
  Matrix grad_out(1, 2, {1, 0});
  Matrix grad_in;
  layer.Backward(grad_out, x, y, &state, &grad_in);
  // dL/dx = grad_out * W^T = [1*1+0*2, 1*3+0*4] = [1, 3]
  EXPECT_FLOAT_EQ(grad_in.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(grad_in.At(0, 1), 3.0f);
  // dL/dW = x^T grad_out = [[1,0],[1,0]]
  EXPECT_FLOAT_EQ(layer.Grads()[0]->At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(layer.Grads()[0]->At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(layer.Grads()[0]->At(1, 0), 1.0f);
  // dL/db = grad_out col-sum
  EXPECT_FLOAT_EQ(layer.Grads()[1]->At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(layer.Grads()[1]->At(0, 1), 0.0f);
}

TEST(LinearTest, GradientsAccumulateAcrossBackwardCalls) {
  Linear layer(1, 1);
  layer.SetWeightRowMajor(Matrix(1, 1, {2}));
  Matrix x(1, 1, {3});
  LayerState state;
  Matrix y;
  Matrix grad_in;
  layer.Forward(x, /*training=*/true, &state, &y);
  layer.Backward(Matrix(1, 1, {1}), x, y, &state, &grad_in);
  layer.Forward(x, /*training=*/true, &state, &y);
  layer.Backward(Matrix(1, 1, {1}), x, y, &state, &grad_in);
  EXPECT_FLOAT_EQ(layer.Grads()[0]->At(0, 0), 6.0f);  // 3 + 3
  layer.ZeroGrad();
  EXPECT_FLOAT_EQ(layer.Grads()[0]->At(0, 0), 0.0f);
}

TEST(LinearTest, HeInitialisationIsBoundedAndNonZero) {
  Rng rng(1);
  Linear layer(100, 50, &rng);
  const double limit = std::sqrt(6.0 / 100.0);
  bool any_nonzero = false;
  const Matrix weight = layer.WeightRowMajor();
  for (size_t i = 0; i < weight.size(); ++i) {
    const float w = weight.data()[i];
    EXPECT_LE(std::fabs(w), limit + 1e-6);
    any_nonzero = any_nonzero || w != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  // Bias starts at zero.
  for (size_t i = 0; i < layer.bias().size(); ++i) {
    EXPECT_FLOAT_EQ(layer.bias().data()[i], 0.0f);
  }
}

TEST(LinearTest, CloneCopiesParametersDeeply) {
  Rng rng(2);
  Linear layer(3, 3, &rng);
  auto clone = layer.Clone();
  auto* cloned = static_cast<Linear*>(clone.get());
  Matrix weight = layer.WeightRowMajor();
  EXPECT_FLOAT_EQ(cloned->WeightRowMajor().At(1, 1), weight.At(1, 1));
  weight.At(1, 1) += 5.0f;
  layer.SetWeightRowMajor(weight);
  EXPECT_NE(cloned->WeightRowMajor().At(1, 1),
            layer.WeightRowMajor().At(1, 1));
}

TEST(LinearTest, SerializationRoundTrip) {
  Rng rng(3);
  Linear layer(4, 2, &rng);
  layer.bias() = Matrix(1, 2, {1.5f, -2.5f});
  BinaryWriter w;
  layer.Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_EQ(r.ReadU8().value(), static_cast<uint8_t>(LayerType::kLinear));
  auto back = Linear::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->in_dim(), 4u);
  EXPECT_EQ(back.value()->out_dim(), 2u);
  const Matrix want = layer.WeightRowMajor();
  const Matrix got = back.value()->WeightRowMajor();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_FLOAT_EQ(got.data()[i], want.data()[i]);
  }
  EXPECT_FLOAT_EQ(back.value()->bias().At(0, 1), -2.5f);
}

TEST(LinearTest, DeserializeRejectsPayloadMismatch) {
  BinaryWriter w;
  w.WriteU64(2);
  w.WriteU64(2);
  w.WriteF32Vector(std::vector<float>{1.0f});  // should be 4 weights
  w.WriteF32Vector(std::vector<float>{0.0f, 0.0f});
  BinaryReader r(w.buffer());
  EXPECT_FALSE(Linear::Deserialize(&r).ok());
}

TEST(LinearTest, GradientBuffersAreSizedOnFirstUse) {
  // A serving layer holds its weights and bias only; Clone and Deserialize
  // adopt their buffers. Grads() hands training zeros of the right shape.
  uint64_t before = Matrix::AllocationCount();
  Linear layer(64, 32);
  EXPECT_EQ(Matrix::AllocationCount() - before, 2u);
  before = Matrix::AllocationCount();
  auto clone = layer.Clone();
  EXPECT_EQ(Matrix::AllocationCount() - before, 2u);
  BinaryWriter w;
  layer.Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_EQ(r.ReadU8().value(), static_cast<uint8_t>(LayerType::kLinear));
  before = Matrix::AllocationCount();
  ASSERT_TRUE(Linear::Deserialize(&r).ok());
  EXPECT_EQ(Matrix::AllocationCount() - before, 0u);  // adopts the vectors

  const std::vector<Matrix*> grads = layer.Grads();
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_EQ(grads[0]->rows(), 64u);
  EXPECT_EQ(grads[0]->cols(), 32u);
  EXPECT_EQ(grads[1]->rows(), 1u);
  EXPECT_EQ(grads[1]->cols(), 32u);
  for (const Matrix* g : grads) {
    for (size_t i = 0; i < g->size(); ++i) EXPECT_EQ(g->data()[i], 0.0f);
  }
}

TEST(LinearTest, HoldsOneAlignedWeightCopyAndWarmedForwardAllocatesNothing) {
  // Each Linear of the paper backbone keeps exactly in x out weight floats
  // (its panels, with no row-major copy beside them) on a cache line, and
  // a warmed batch-1 forward makes no Matrix allocation at 1 or 4 lanes.
  Rng rng(9);
  Sequential net = BuildPaperBackbone(&rng);
  size_t linears = 0;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    auto* linear = dynamic_cast<Linear*>(&net.layer(i));
    if (linear == nullptr) continue;
    ++linears;
    const std::vector<Matrix*> params = linear->Params();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0]->size(), linear->in_dim() * linear->out_dim());
    EXPECT_EQ(params[1]->size(), linear->out_dim());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(params[0]->data()) % 64, 0u);
  }
  EXPECT_EQ(linears, 5u);

  const size_t saved_threads = ParallelThreads();
  Matrix x(1, net.InputDim());
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  ForwardWorkspace ws;
  for (size_t lanes : {1, 4}) {
    SetParallelThreads(lanes);
    net.Forward(x, &ws);
    const uint64_t before = Matrix::AllocationCount();
    for (int i = 0; i < 3; ++i) net.Forward(x, &ws);
    EXPECT_EQ(Matrix::AllocationCount() - before, 0u) << lanes << " lanes";
  }
  SetParallelThreads(saved_threads);
}

TEST(LinearTest, NameDescribesShape) {
  Linear layer(80, 128);
  EXPECT_EQ(layer.name(), "Linear(80->128)");
  EXPECT_EQ(layer.output_dim(80), 128u);
}

}  // namespace
}  // namespace magneto::nn
