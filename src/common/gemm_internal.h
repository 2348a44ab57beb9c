#ifndef MAGNETO_COMMON_GEMM_INTERNAL_H_
#define MAGNETO_COMMON_GEMM_INTERNAL_H_

// Internal to magneto_common: the fp32 GEMM kernels behind MatMulInto,
// MatMulTransAInto, MatMulTransAAccumulate and MatMulTransBInto
// (common/matrix.h). Library code calls those; this header exists so the
// kernel oracle tests can run every packed instantiation the host supports
// against the portable kernel.

#include <cstddef>

#include "common/matrix.h"

namespace magneto::gemm_internal {

/// Kernel instantiations. The values are what the `common.gemm.isa` gauge
/// reports.
enum class GemmIsa : int { kPortable = 0, kAvx2 = 1, kAvx512f = 2 };

/// Batches below this many rows of `a` run the portable kernel whatever the
/// host supports: the batch-1 forward is memory-bound, and packing a panel
/// would not pay for itself.
inline constexpr size_t kPackedMinRows = 16;

/// True if this build and this CPU can run `isa` (kPortable always can).
bool IsaSupported(GemmIsa isa);

/// The widest supported instantiation, chosen once on first use; the first
/// call also sets the `common.gemm.isa` gauge.
GemmIsa DispatchedIsa();

/// The GEMMs through the named kernel at every batch size (no cut-over).
/// Same contracts as the public forms; `isa` must be supported. Every
/// instantiation produces bit-identical results.
void MatMulIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                    Matrix* out);
void MatMulTransAIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out);
void MatMulTransBIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out);
void MatMulTransAAccumulateWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                                Matrix* out);

}  // namespace magneto::gemm_internal

#endif  // MAGNETO_COMMON_GEMM_INTERNAL_H_
