#include "nn/activation.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/dropout.h"

namespace magneto::nn {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  Matrix x(1, 4, {-2, -0.5f, 0, 3});
  Matrix y;
  relu.Forward(x, /*training=*/false, /*state=*/nullptr, &y);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 3), 3.0f);
}

TEST(ReluTest, BackwardGatesOnInputSign) {
  Relu relu;
  Matrix x(1, 3, {-1, 0, 2});
  Matrix y;
  relu.Forward(x, /*training=*/true, /*state=*/nullptr, &y);
  Matrix g(1, 3, {5, 5, 5});
  Matrix gx;
  relu.Backward(g, x, y, /*state=*/nullptr, &gx);
  EXPECT_FLOAT_EQ(gx.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gx.At(0, 1), 0.0f);  // zero input blocks gradient
  EXPECT_FLOAT_EQ(gx.At(0, 2), 5.0f);
}

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t Bits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

TEST(ReluTest, BackwardBitsPinned) {
  // The gate is `in <= 0 ? +0 : g`, element for element: NaN inputs pass
  // the gradient (the comparison is false), -0 and negative denormals block
  // it, and a blocked element is +0 even when its gradient is NaN. Open
  // gradients keep their exact bits (-0, NaN payloads).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float payload_nan = FromBits(0x7fc12345u);
  const float denorm = std::numeric_limits<float>::denorm_min();
  struct Case {
    float in, g;
    uint32_t want;
  };
  const Case cases[] = {
      {nan, 3.5f, Bits(3.5f)},
      {-nan, -2.0f, Bits(-2.0f)},
      {-0.0f, 3.5f, 0u},
      {0.0f, 3.5f, 0u},
      {denorm, 3.5f, Bits(3.5f)},
      {-denorm, 3.5f, 0u},
      {1e-40f, -1.25f, Bits(-1.25f)},
      {inf, 3.5f, Bits(3.5f)},
      {-inf, 3.5f, 0u},
      {-1.0f, nan, 0u},
      {-0.0f, payload_nan, 0u},
      {0.0f, -nan, 0u},
      {-inf, inf, 0u},
      {2.0f, payload_nan, 0x7fc12345u},
      {2.0f, -0.0f, 0x80000000u},
      {nan, -inf, Bits(-inf)},
      {denorm, denorm, Bits(denorm)},
  };
  constexpr size_t kCases = sizeof(cases) / sizeof(cases[0]);
  // Repeat the cases across 3 rows of 37 so every one lands in the vector
  // body and in the scalar tail at some offset.
  constexpr size_t kRows = 3, kCols = 37;
  Matrix x(kRows, kCols), g(kRows, kCols);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = cases[i % kCases].in;
    g.data()[i] = cases[i % kCases].g;
  }
  Relu relu;
  Matrix y;
  relu.Forward(x, /*training=*/true, /*state=*/nullptr, &y);
  Matrix gx;
  relu.Backward(g, x, y, /*state=*/nullptr, &gx);
  ASSERT_TRUE(gx.SameShape(x));
  for (size_t i = 0; i < gx.size(); ++i) {
    EXPECT_EQ(Bits(gx.data()[i]), cases[i % kCases].want)
        << "element " << i << " case " << i % kCases;
  }
}

TEST(TanhTest, ForwardAndBackward) {
  Tanh tanh_layer;
  Matrix x(1, 2, {0.0f, 1.0f});
  Matrix y;
  tanh_layer.Forward(x, /*training=*/false, /*state=*/nullptr, &y);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_NEAR(y.At(0, 1), std::tanh(1.0), 1e-6);
  Matrix g(1, 2, {1, 1});
  Matrix gx;
  tanh_layer.Backward(g, x, y, /*state=*/nullptr, &gx);
  EXPECT_NEAR(gx.At(0, 0), 1.0, 1e-6);  // 1 - tanh(0)^2
  EXPECT_NEAR(gx.At(0, 1), 1.0 - std::tanh(1.0) * std::tanh(1.0), 1e-6);
}

TEST(SigmoidTest, ForwardAndBackward) {
  Sigmoid sig;
  Matrix x(1, 2, {0.0f, 100.0f});
  Matrix y;
  sig.Forward(x, /*training=*/false, /*state=*/nullptr, &y);
  EXPECT_NEAR(y.At(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(y.At(0, 1), 1.0, 1e-6);  // saturates without overflow
  Matrix g(1, 2, {1, 1});
  Matrix gx;
  sig.Backward(g, x, y, /*state=*/nullptr, &gx);
  EXPECT_NEAR(gx.At(0, 0), 0.25, 1e-6);
  EXPECT_NEAR(gx.At(0, 1), 0.0, 1e-6);
}

TEST(DropoutTest, InferenceIsIdentity) {
  Dropout dropout(0.5, 1);
  Matrix x(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix y;
  dropout.Forward(x, /*training=*/false, /*state=*/nullptr, &y);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  }
}

TEST(DropoutTest, TrainingZeroesAndRescales) {
  Dropout dropout(0.5, 7);
  Matrix x(1, 1000);
  x.Fill(1.0f);
  LayerState state;
  Matrix y;
  dropout.Forward(x, /*training=*/true, &state, &y);
  size_t zeros = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.data()[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.06);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout dropout(0.3, 11);
  Matrix x(1, 100);
  x.Fill(1.0f);
  LayerState state;
  Matrix y;
  dropout.Forward(x, /*training=*/true, &state, &y);
  Matrix g(1, 100);
  g.Fill(1.0f);
  Matrix gx;
  dropout.Backward(g, x, y, &state, &gx);
  for (size_t i = 0; i < y.size(); ++i) {
    // Gradient flows exactly where the forward pass kept the unit.
    EXPECT_FLOAT_EQ(gx.data()[i], y.data()[i]);
  }
}

TEST(DropoutTest, ZeroProbabilityIsIdentityEvenInTraining) {
  Dropout dropout(0.0, 3);
  Matrix x(1, 10, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  LayerState state;
  Matrix y;
  dropout.Forward(x, /*training=*/true, &state, &y);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  }
}

TEST(DropoutTest, SerializationRoundTrip) {
  Dropout dropout(0.25, 99);
  BinaryWriter w;
  dropout.Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_EQ(r.ReadU8().value(), static_cast<uint8_t>(LayerType::kDropout));
  auto back = Dropout::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value()->p(), 0.25);
}

}  // namespace
}  // namespace magneto::nn
