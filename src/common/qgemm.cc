#include "common/qgemm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace magneto {
namespace {

// Target multiply-adds per ParallelFor chunk, matching the fp32 GEMM grain
// policy so quantized and float layers schedule alike on the shared pool.
constexpr size_t kIntOpsPerChunk = size_t{1} << 21;

size_t RowGrain(size_t ops_per_row) {
  return std::max<size_t>(1, kIntOpsPerChunk / (ops_per_row + 1));
}

// Shared scale-folding epilogue. Both kernels funnel their exact integer
// accumulators through this one function so the float operation sequence —
// int32→float conversion, scale product, multiply, bias add — is compiled
// exactly once and the two paths stay bit-identical even under FP
// contraction.
void FoldScales(const int32_t* acc, float a_scale, const float* b_scales,
                const float* bias, size_t n, float* y) {
  if (bias != nullptr) {
    for (size_t j = 0; j < n; ++j) {
      y[j] = static_cast<float>(acc[j]) * (a_scale * b_scales[j]) + bias[j];
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      y[j] = static_cast<float>(acc[j]) * (a_scale * b_scales[j]);
    }
  }
}

// One output row: acc[j] = Σ_i qx[i]·b[i][j]. The activation row is first
// compacted to its nonzero positions (`nz`, caller scratch of size >= k) —
// post-ReLU activations quantize to exact zeros, so skipping them element-
// wise beats any fixed unroll on real embedding traffic — then streamed two
// weight rows per pass. Integer adds are exact and order-free, so the
// compaction cannot change the accumulator values.
void QGemmRow(const int8_t* qx, const int8_t* b, size_t k, size_t n,
              int32_t* acc, uint32_t* nz) {
  for (size_t j = 0; j < n; ++j) acc[j] = 0;
  size_t nnz = 0;
  for (size_t i = 0; i < k; ++i) {
    if (qx[i] != 0) nz[nnz++] = static_cast<uint32_t>(i);
  }
  size_t t = 0;
#if defined(__SSE2__)
  // Two activation streams per pass through pmaddwd: each 32-bit lane of
  // `xv` holds the int16 pair [x0, x1]; interleaving the two sign-extended
  // weight rows as [w0_j, w1_j] makes one madd produce x0*w0_j + x1*w1_j for
  // four j at a time. Products are <= 2*127^2, the int32 accumulators are
  // covered by the kQGemmMaxK bound, so this is exact — identical bytes to
  // the scalar fallback and the serial reference.
  for (; t + 2 <= nnz; t += 2) {
    const size_t i0 = nz[t], i1 = nz[t + 1];
    const int32_t x0 = qx[i0], x1 = qx[i1];
    const int8_t* w0 = b + i0 * n;
    const int8_t* w1 = b + i1 * n;
    const __m128i xv =
        _mm_set1_epi32((x1 << 16) | (x0 & 0xFFFF));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m128i w0b = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(w0 + j));
      const __m128i w1b = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(w1 + j));
      // Sign-extend 8 int8 -> 8 int16 (duplicate bytes, arithmetic shift).
      const __m128i w0w = _mm_srai_epi16(_mm_unpacklo_epi8(w0b, w0b), 8);
      const __m128i w1w = _mm_srai_epi16(_mm_unpacklo_epi8(w1b, w1b), 8);
      const __m128i lo = _mm_unpacklo_epi16(w0w, w1w);  // j .. j+3
      const __m128i hi = _mm_unpackhi_epi16(w0w, w1w);  // j+4 .. j+7
      __m128i a0 = _mm_loadu_si128(reinterpret_cast<__m128i*>(acc + j));
      __m128i a1 = _mm_loadu_si128(reinterpret_cast<__m128i*>(acc + j + 4));
      a0 = _mm_add_epi32(a0, _mm_madd_epi16(lo, xv));
      a1 = _mm_add_epi32(a1, _mm_madd_epi16(hi, xv));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + j), a0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + j + 4), a1);
    }
    for (; j < n; ++j) acc[j] += x0 * w0[j] + x1 * w1[j];
  }
#else
  for (; t + 4 <= nnz; t += 4) {
    const size_t i0 = nz[t], i1 = nz[t + 1], i2 = nz[t + 2], i3 = nz[t + 3];
    const int32_t x0 = qx[i0], x1 = qx[i1], x2 = qx[i2], x3 = qx[i3];
    const int8_t* w0 = b + i0 * n;
    const int8_t* w1 = b + i1 * n;
    const int8_t* w2 = b + i2 * n;
    const int8_t* w3 = b + i3 * n;
    for (size_t j = 0; j < n; ++j) {
      acc[j] += x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
    }
  }
#endif
  for (; t < nnz; ++t) {
    const size_t i0 = nz[t];
    const int32_t x0 = qx[i0];
    const int8_t* w = b + i0 * n;
    for (size_t j = 0; j < n; ++j) acc[j] += x0 * w[j];
  }
}

}  // namespace

float QuantizeRowInt8(const float* x, size_t n, int8_t* q) {
  float max_abs = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float v = std::fabs(x[i]);
    // Finite elements only: one inf (or NaN) must not zero out the rest of
    // the row through an unbounded scale.
    if (v <= std::numeric_limits<float>::max() && v > max_abs) max_abs = v;
  }
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < n; ++i) {
    float scaled = x[i] * inv;
    if (!(std::fabs(scaled) <= 127.0f)) {
      // Out of range or non-finite: ±inf saturates, NaN maps to 0.
      scaled = scaled > 0.0f ? 127.0f : (scaled < 0.0f ? -127.0f : 0.0f);
    }
    // Round half away from zero, same as lround but branch-cheap: `scaled`
    // is already clamped to [-127, 127] so the cast cannot overflow.
    q[i] = static_cast<int8_t>(
        static_cast<int32_t>(scaled + (scaled >= 0.0f ? 0.5f : -0.5f)));
  }
  return scale;
}

void QuantizeRowsInt8(const Matrix& x, QuantizedRows* out) {
  out->rows = x.rows();
  out->cols = x.cols();
  out->data.resize(x.size());
  out->scales.resize(x.rows());
  const size_t cols = x.cols();
  // Rows quantize independently, so chunking cannot change any output byte.
  ParallelFor(0, x.rows(), RowGrain(cols * 4), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      out->scales[r] =
          QuantizeRowInt8(x.RowPtr(r), cols, out->data.data() + r * cols);
    }
  });
}

void QGemmInt8(const QuantizedRows& a, const int8_t* b, size_t k, size_t n,
               const float* b_scales, const float* bias, Matrix* out) {
  MAGNETO_CHECK(a.cols == k);
  MAGNETO_CHECK(k <= kQGemmMaxK);
  const size_t m = a.rows;
  out->ResetForOverwrite(m, n);
  ParallelFor(0, m, RowGrain(k * n), [&](size_t row0, size_t row1) {
    std::vector<int32_t> acc(n);
    std::vector<uint32_t> nz(k);
    for (size_t r = row0; r < row1; ++r) {
      QGemmRow(a.data.data() + r * k, b, k, n, acc.data(), nz.data());
      FoldScales(acc.data(), a.scales[r], b_scales, bias, n, out->RowPtr(r));
    }
  });
}

void QGemmInt8Reference(const QuantizedRows& a, const int8_t* b, size_t k,
                        size_t n, const float* b_scales, const float* bias,
                        Matrix* out) {
  MAGNETO_CHECK(a.cols == k);
  MAGNETO_CHECK(k <= kQGemmMaxK);
  const size_t m = a.rows;
  out->ResetForOverwrite(m, n);
  std::vector<int32_t> acc(n);
  for (size_t r = 0; r < m; ++r) {
    const int8_t* qx = a.data.data() + r * k;
    for (size_t j = 0; j < n; ++j) acc[j] = 0;
    for (size_t i = 0; i < k; ++i) {
      const int32_t xi = qx[i];
      if (xi == 0) continue;
      const int8_t* w = b + i * n;
      for (size_t j = 0; j < n; ++j) acc[j] += xi * w[j];
    }
    FoldScales(acc.data(), a.scales[r], b_scales, bias, n, out->RowPtr(r));
  }
}

}  // namespace magneto
