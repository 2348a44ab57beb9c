#include "common/qgemm.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"

namespace magneto {
namespace {

class QGemmTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ParallelThreads(); }
  void TearDown() override { SetParallelThreads(saved_threads_); }
  size_t saved_threads_ = 1;
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed,
                    double stddev = 1.0) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return x;
}

std::vector<int8_t> RandomInt8(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& e : v) {
    e = static_cast<int8_t>(
        static_cast<int>(rng.Uniform() * 255.0) - 127);
  }
  return v;
}

TEST_F(QGemmTest, QuantizeRowsRoundTripErrorBounded) {
  Matrix x = RandomMatrix(5, 40, 1);
  QuantizedRows q;
  QuantizeRowsInt8(x, &q);
  ASSERT_EQ(q.rows, 5u);
  ASSERT_EQ(q.cols, 40u);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t i = 0; i < x.cols(); ++i) {
      const float back =
          static_cast<float>(q.data[r * 40 + i]) * q.scales[r];
      EXPECT_LE(std::fabs(back - x.At(r, i)), q.scales[r] / 2.0f + 1e-6f);
    }
  }
}

TEST_F(QGemmTest, QuantizeRowsZeroRowUsesUnitScale) {
  Matrix x(2, 4);
  x.At(1, 2) = 3.0f;
  QuantizedRows q;
  QuantizeRowsInt8(x, &q);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(q.data[i], 0);
  EXPECT_EQ(q.data[4 + 2], 127);
}

TEST_F(QGemmTest, QuantizeRowsNonFiniteDeterministic) {
  Matrix x(1, 4);
  x.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  x.At(0, 1) = std::numeric_limits<float>::infinity();
  x.At(0, 2) = -std::numeric_limits<float>::infinity();
  x.At(0, 3) = 2.0f;
  QuantizedRows q;
  QuantizeRowsInt8(x, &q);
  // Scale comes from the finite elements only; non-finite values saturate
  // (inf) or vanish (NaN) instead of invoking UB or poisoning the row.
  EXPECT_FLOAT_EQ(q.scales[0], 2.0f / 127.0f);
  EXPECT_EQ(q.data[0], 0);
  EXPECT_EQ(q.data[1], 127);
  EXPECT_EQ(q.data[2], -127);
  EXPECT_EQ(q.data[3], 127);
}

TEST_F(QGemmTest, MatchesNaiveIntegerGemm) {
  const size_t m = 7, k = 33, n = 12;
  Matrix x = RandomMatrix(m, k, 2);
  QuantizedRows qx;
  QuantizeRowsInt8(x, &qx);
  std::vector<int8_t> w = RandomInt8(k * n, 3);
  std::vector<float> w_scales(n);
  for (size_t j = 0; j < n; ++j) w_scales[j] = 0.01f + 0.001f * j;
  std::vector<float> bias(n);
  for (size_t j = 0; j < n; ++j) bias[j] = 0.1f * j;

  Matrix out;
  QGemmInt8(qx, w.data(), k, n, w_scales.data(), bias.data(), &out);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (size_t i = 0; i < k; ++i) {
        acc += int64_t{qx.data[r * k + i]} * w[i * n + j];
      }
      const float want = static_cast<float>(acc) *
                             (qx.scales[r] * w_scales[j]) +
                         bias[j];
      EXPECT_FLOAT_EQ(out.At(r, j), want);
    }
  }
}

TEST_F(QGemmTest, KernelAndReferenceBitIdenticalAcrossThreads) {
  // Shapes straddle the 4-way unroll (k % 4 != 0) and the row grain.
  const size_t m = 23, k = 130, n = 37;
  Matrix x = RandomMatrix(m, k, 4, 3.0);
  QuantizedRows qx;
  QuantizeRowsInt8(x, &qx);
  std::vector<int8_t> w = RandomInt8(k * n, 5);
  std::vector<float> w_scales(n, 0.02f);
  std::vector<float> bias(n, -0.5f);

  Matrix ref;
  QGemmInt8Reference(qx, w.data(), k, n, w_scales.data(), bias.data(), &ref);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SetParallelThreads(threads);
    Matrix out;
    QGemmInt8(qx, w.data(), k, n, w_scales.data(), bias.data(), &out);
    ASSERT_TRUE(out.SameShape(ref));
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out.data()[i], ref.data()[i]) << "index " << i << " with "
                                              << threads << " threads";
    }
  }
}

TEST_F(QGemmTest, NullBiasMeansZero) {
  Matrix x = RandomMatrix(2, 8, 6);
  QuantizedRows qx;
  QuantizeRowsInt8(x, &qx);
  std::vector<int8_t> w = RandomInt8(8 * 3, 7);
  std::vector<float> w_scales(3, 0.1f);
  std::vector<float> zero_bias(3, 0.0f);
  Matrix with_zero, with_null;
  QGemmInt8(qx, w.data(), 8, 3, w_scales.data(), zero_bias.data(),
            &with_zero);
  QGemmInt8(qx, w.data(), 8, 3, w_scales.data(), nullptr, &with_null);
  for (size_t i = 0; i < with_zero.size(); ++i) {
    EXPECT_EQ(with_zero.data()[i], with_null.data()[i]);
  }
}

}  // namespace
}  // namespace magneto
