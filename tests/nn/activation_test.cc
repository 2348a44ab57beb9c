#include "nn/activation.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace magneto::nn
