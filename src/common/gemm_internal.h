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

/// Batches below this many rows of `a` do not pack: a panel of B would be
/// swept by too few rows to pay for its copy. MatMul takes the column-block
/// kernel there (MatMulColumnsIntoWith): the weights are read in place, and
/// a batch-1 layer is split by output columns across the pool so each
/// lane's slice of the weights stays in its own core's L2. TransA and
/// TransB take the portable kernels.
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
/// MatMul through the column-block kernel, which MatMulInto runs below
/// kPackedMinRows rows, at any batch size. kPortable names its baseline
/// instantiation (4-wide vectors), not the portable oracle that
/// MatMulIntoWith(kPortable, ...) runs; every instantiation reproduces the
/// oracle's bits.
void MatMulColumnsIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                           Matrix* out);
void MatMulTransAIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out);
void MatMulTransBIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out);
void MatMulTransAAccumulateWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                                Matrix* out);

}  // namespace magneto::gemm_internal

#endif  // MAGNETO_COMMON_GEMM_INTERNAL_H_
