#include "nn/quantized_linear.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "nn/sequential.h"

namespace magneto::nn {
namespace {

Linear RandomLinear(size_t in, size_t out, uint64_t seed) {
  Rng rng(seed);
  return Linear(in, out, &rng);
}

QuantizedMatrix MustQuantize(const Matrix& w) {
  auto q = QuantizedMatrix::Quantize(w);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

std::unique_ptr<QuantizedLinear> MustFromLinear(const Linear& source) {
  auto q = QuantizedLinear::FromLinear(source);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed,
                    double stddev = 1.0) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return x;
}

TEST(QuantizedMatrixTest, RoundTripErrorBounded) {
  Matrix w = RandomMatrix(20, 10, 1, 0.5);
  QuantizedMatrix q = MustQuantize(w);
  Matrix back = q.Dequantize();
  // Symmetric int8: error per weight <= scale/2 = max|col| / 254.
  for (size_t j = 0; j < w.cols(); ++j) {
    float max_abs = 0.0f;
    for (size_t i = 0; i < w.rows(); ++i) {
      max_abs = std::max(max_abs, std::fabs(w.At(i, j)));
    }
    for (size_t i = 0; i < w.rows(); ++i) {
      EXPECT_LE(std::fabs(back.At(i, j) - w.At(i, j)),
                max_abs / 254.0f + 1e-6f);
    }
  }
}

TEST(QuantizedMatrixTest, ZeroMatrixSafe) {
  Matrix w(3, 3);
  QuantizedMatrix q = MustQuantize(w);
  Matrix back = q.Dequantize();
  EXPECT_FLOAT_EQ(back.AbsMax(), 0.0f);
}

TEST(QuantizedMatrixTest, PayloadIsRoughlyQuarter) {
  Matrix w(100, 100);
  QuantizedMatrix q = MustQuantize(w);
  EXPECT_EQ(q.data.size(), 10000u);
  EXPECT_LT(q.PayloadBytes(), 100u * 100u * sizeof(float) / 3);
}

TEST(QuantizedMatrixTest, RejectsNonFiniteWeights) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    Matrix w = RandomMatrix(4, 4, 2);
    w.At(1, 2) = bad;
    auto q = QuantizedMatrix::Quantize(w);
    EXPECT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QuantizedLinearTest, FromLinearRejectsNonFiniteWeights) {
  Linear fp32 = RandomLinear(4, 3, 11);
  Matrix weight = fp32.WeightRowMajor();
  weight.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  fp32.SetWeightRowMajor(weight);
  EXPECT_FALSE(QuantizedLinear::FromLinear(fp32).ok());
}

TEST(QuantizedLinearTest, ForwardTracksFp32Layer) {
  Linear fp32 = RandomLinear(16, 8, 2);
  auto q = MustFromLinear(fp32);
  Matrix x = RandomMatrix(4, 16, 3);
  Matrix y_fp, y_q;
  fp32.Forward(x, /*training=*/false, /*state=*/nullptr, &y_fp);
  q->Forward(x, /*training=*/false, /*state=*/nullptr, &y_q);
  ASSERT_TRUE(y_fp.SameShape(y_q));
  // Both the weights and (dynamically) the activations are int8 now, so the
  // tolerance covers two quantization stages.
  const float scale = y_fp.AbsMax();
  for (size_t i = 0; i < y_fp.size(); ++i) {
    EXPECT_NEAR(y_q.data()[i], y_fp.data()[i], 0.03f * scale + 1e-3f);
  }
}

// The determinism contract: the int8 kernel path produces identical bytes at
// every thread count (exact integer accumulation + fixed scale-fold
// sequence). The kernel-vs-serial-reference bit comparison lives in
// qgemm_test; here we also pin the layer within tolerance of fp32
// arithmetic on the dequantized weights.
TEST(QuantizedLinearTest, KernelBitIdenticalAcrossThreads) {
  Linear fp32 = RandomLinear(96, 40, 12);
  auto q = MustFromLinear(fp32);
  Matrix x = RandomMatrix(17, 96, 13, 2.0);

  const size_t saved_threads = ParallelThreads();
  SetParallelThreads(1);
  Matrix y_anchor;
  q->Forward(x, /*training=*/false, /*state=*/nullptr, &y_anchor);
  for (size_t threads : {size_t{2}, size_t{5}, size_t{8}}) {
    SetParallelThreads(threads);
    Matrix y;
    q->Forward(x, /*training=*/false, /*state=*/nullptr, &y);
    ASSERT_TRUE(y.SameShape(y_anchor));
    for (size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y.data()[i], y_anchor.data()[i])
          << "mismatch at " << i << " with " << threads << " threads";
    }
  }
  SetParallelThreads(saved_threads);

  // Tolerance oracle: x · dequant(W) + b in float, with the same weight
  // codes the layer holds and no activation quantization, so the int8 path
  // must stay within the per-row quantization tolerance of it.
  const Matrix w = MustQuantize(fp32.WeightRowMajor()).Dequantize();
  const Matrix& bias = fp32.bias();
  Matrix y_ref(x.rows(), w.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t j = 0; j < w.cols(); ++j) {
      float acc = 0.0f;
      for (size_t i = 0; i < w.rows(); ++i) acc += x.At(r, i) * w.At(i, j);
      y_ref.At(r, j) = acc + bias.At(0, j);
    }
  }
  ASSERT_TRUE(y_ref.SameShape(y_anchor));
  const float scale = y_ref.AbsMax();
  for (size_t i = 0; i < y_ref.size(); ++i) {
    EXPECT_NEAR(y_anchor.data()[i], y_ref.data()[i], 0.02f * scale + 1e-3f);
  }
}

TEST(QuantizedLinearTest, MaxWeightErrorSmall) {
  Linear fp32 = RandomLinear(32, 16, 4);
  auto q = MustFromLinear(fp32);
  EXPECT_LT(q->MaxWeightError(fp32), fp32.WeightRowMajor().AbsMax() / 100.0f);
}

TEST(QuantizedLinearTest, SerializationRoundTrip) {
  Linear fp32 = RandomLinear(6, 4, 5);
  auto q = MustFromLinear(fp32);
  BinaryWriter w;
  q->Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_EQ(r.ReadU8().value(), kQuantizedLinearTag);
  auto back = QuantizedLinear::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  Matrix x(2, 6);
  x.Fill(0.5f);
  Matrix y1, y2;
  q->Forward(x, /*training=*/false, /*state=*/nullptr, &y1);
  back.value()->Forward(x, /*training=*/false, /*state=*/nullptr, &y2);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(QuantizedLinearTest, SequentialDeserializesQuantizedTag) {
  Sequential net;
  net.Add(MustFromLinear(RandomLinear(5, 3, 7)));
  BinaryWriter w;
  net.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Sequential::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_layers(), 1u);
  EXPECT_EQ(back.value().InputDim(), 5u);
}

TEST(QuantizedLinearTest, CloneIsIndependentCopy) {
  auto q = MustFromLinear(RandomLinear(4, 4, 8));
  auto clone = q->Clone();
  Matrix x(1, 4);
  x.Fill(1.0f);
  Matrix y1, y2;
  q->Forward(x, /*training=*/false, /*state=*/nullptr, &y1);
  clone->Forward(x, /*training=*/false, /*state=*/nullptr, &y2);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(QuantizedLinearDeathTest, BackwardAborts) {
  auto q = MustFromLinear(RandomLinear(4, 4, 9));
  Matrix x(1, 4);
  Matrix y;
  q->Forward(x, /*training=*/true, /*state=*/nullptr, &y);
  Matrix grad_in;
  EXPECT_DEATH(q->Backward(Matrix(1, 4), x, y, nullptr, &grad_in),
               "inference-only");
}

TEST(QuantizedLinearTest, DeserializeRejectsSizeMismatch) {
  BinaryWriter w;
  w.WriteU64(4);
  w.WriteU64(4);
  w.WriteI8Vector(std::vector<int8_t>(7));  // should be 16
  w.WriteF32Vector(std::vector<float>(4));
  w.WriteF32Vector(std::vector<float>(4));
  BinaryReader r(w.buffer());
  EXPECT_FALSE(QuantizedLinear::Deserialize(&r).ok());
}

// The allocate-before-validate regression: a corrupt length field must be
// rejected by comparing against the count the validated dims imply, before
// any allocation happens. The claimed count here is far beyond the actual
// buffer, and far beyond what 4x4 allows.
TEST(QuantizedLinearTest, DeserializeRejectsHostileLengthBeforeAllocating) {
  BinaryWriter w;
  w.WriteU64(4);
  w.WriteU64(4);
  w.WriteU64(uint64_t{1} << 40);  // weight element count: hostile
  BinaryReader r(w.buffer());
  auto result = QuantizedLinear::Deserialize(&r);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().ToString().find("expected"), std::string::npos);
}

TEST(QuantizedLinearTest, DeserializeRejectsBadScales) {
  const std::vector<float> bad_scales = {
      0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity()};
  for (float bad : bad_scales) {
    BinaryWriter w;
    w.WriteU64(4);
    w.WriteU64(4);
    w.WriteI8Vector(std::vector<int8_t>(16, 1));
    std::vector<float> scales(4, 0.5f);
    scales[2] = bad;
    w.WriteF32Vector(scales);
    w.WriteF32Vector(std::vector<float>(4));
    BinaryReader r(w.buffer());
    auto result = QuantizedLinear::Deserialize(&r);
    ASSERT_FALSE(result.ok()) << "scale " << bad << " accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(QuantizedLinearTest, DeserializeRejectsNonFiniteBias) {
  BinaryWriter w;
  w.WriteU64(4);
  w.WriteU64(4);
  w.WriteI8Vector(std::vector<int8_t>(16, 1));
  w.WriteF32Vector(std::vector<float>(4, 0.5f));
  std::vector<float> bias(4, 0.0f);
  bias[1] = std::numeric_limits<float>::quiet_NaN();
  w.WriteF32Vector(bias);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(QuantizedLinear::Deserialize(&r).ok());
}

// Every truncation point of a valid payload must yield a status, not a
// crash or an oversized allocation.
TEST(QuantizedLinearTest, DeserializeSurvivesEveryTruncation) {
  auto q = MustFromLinear(RandomLinear(6, 5, 21));
  BinaryWriter w;
  q->Serialize(&w);
  const std::string& full = w.buffer();
  const size_t payload = full.size() - 1;  // skip the tag byte
  for (size_t len = 0; len < payload; ++len) {
    BinaryReader r(full.data() + 1, len);
    EXPECT_FALSE(QuantizedLinear::Deserialize(&r).ok())
        << "truncated to " << len << " accepted";
  }
}

}  // namespace
}  // namespace magneto::nn
