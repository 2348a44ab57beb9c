#ifndef MAGNETO_COMMON_QGEMM_H_
#define MAGNETO_COMMON_QGEMM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace magneto {

/// Integer GEMM for the quantized edge path (§2.1: "quantizing weights to
/// reduce resource costs"). Activations are quantized dynamically — symmetric
/// per-row int8, scale = max|x| / 127 — then multiplied against int8
/// per-output-channel-scaled weights with int8×int8→int32 inner loops. The
/// scales fold back out once per output element:
///
///   out[r][j] = float(sum_i qx[r][i] * qw[i][j]) * (sx[r] * sw[j]) + bias[j]
///
/// Integer accumulation is exact and order-independent, so the parallel
/// kernel and the serial reference produce bit-identical outputs at any
/// `MAGNETO_THREADS` setting — the property the bit-comparison tests pin.
/// `nn::QuantizedLinear::Forward` runs `QuantizeRowsInt8` then `QGemmInt8`.

/// Largest inner dimension the int32 accumulators tolerate: every int8×int8
/// product has magnitude ≤ 127·127, so k products stay below 2^31 as long as
/// k ≤ 2^31 / 127². Callers with a larger k must use a widening path.
inline constexpr size_t kQGemmMaxK = (size_t{1} << 31) / (127 * 127);

/// A row-major int8 matrix with one symmetric scale per row; the dynamic
/// activation-side counterpart of the per-column `nn::QuantizedMatrix`.
/// Buffers are reused across calls to `QuantizeRowsInt8`.
struct QuantizedRows {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;   ///< row-major, rows x cols
  std::vector<float> scales;  ///< per row
};

/// Quantizes `x` row by row: scale_r = max|x[r]| / 127 (1.0 for an all-zero
/// row), q = round(x / scale_r) clamped to [-127, 127]. Non-finite inputs
/// quantize deterministically rather than invoking UB: ±inf clamps to ±127,
/// NaN maps to 0, and neither contributes to the row scale.
void QuantizeRowsInt8(const Matrix& x, QuantizedRows* out);

/// Single-row form of `QuantizeRowsInt8` (the wire-v3 support-set rows).
/// Writes n int8 values to `q` and returns the symmetric scale.
float QuantizeRowInt8(const float* x, size_t n, int8_t* q);

/// out[r][j] = float(Σ_i a.data[r][i]·b[i][j]) · (a.scales[r]·b_scales[j]),
/// plus bias[j] when `bias` is non-null. `b` is row-major k×n (the layout
/// `nn::QuantizedMatrix` stores), `b_scales` has n entries. Partitioned over
/// output rows through the shared `ParallelFor` with the same flops-per-chunk
/// grain policy as the fp32 GEMM family. Requires a.cols == k ≤ kQGemmMaxK.
void QGemmInt8(const QuantizedRows& a, const int8_t* b, size_t k, size_t n,
               const float* b_scales, const float* bias, Matrix* out);

/// Serial scalar reference with the same quantized semantics — what fp32
/// arithmetic on the dequantized operands computes, with the scales hoisted
/// out of the exact integer sum. Bit-identical to `QGemmInt8` (shared
/// scale-folding epilogue); the kernel tests compare the two with `memcmp`.
void QGemmInt8Reference(const QuantizedRows& a, const int8_t* b, size_t k,
                        size_t n, const float* b_scales, const float* bias,
                        Matrix* out);

}  // namespace magneto

#endif  // MAGNETO_COMMON_QGEMM_H_
