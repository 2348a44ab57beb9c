#ifndef MAGNETO_COMMON_GEMM_INTERNAL_H_
#define MAGNETO_COMMON_GEMM_INTERNAL_H_

// Internal to magneto_common: the fp32 GEMM kernels behind MatMulInto,
// MatMulTransAInto, MatMulTransAAccumulate and MatMulTransBInto
// (common/matrix.h). Library code calls those; this header exists so the
// kernel oracle tests can run every packed instantiation the host supports
// against the portable kernel.

#include <algorithm>
#include <cstddef>

#include "common/matrix.h"

namespace magneto::gemm_internal {

/// Kernel instantiations. The values are what the `common.gemm.isa` gauge
/// reports.
enum class GemmIsa : int { kPortable = 0, kAvx2 = 1, kAvx512f = 2 };

/// Batches below this many rows of `a` do not pack: a panel of B would be
/// swept by too few rows to pay for its copy. MatMul takes the column-block
/// kernel there (MatMulColumnsIntoWith): a batch-1 layer is split by output
/// columns across the pool so each lane's slice of the weights stays in its
/// own core's L2, and a weight in Layout::kPanels gives every chunk one
/// contiguous, 64-byte aligned block to read (chunks are at most
/// kPanelColumns wide, and a chunk that straddles a panel edge runs as one
/// sub-block per panel). TransA and TransB take the portable kernels.
inline constexpr size_t kPackedMinRows = 16;

/// Where element (r, c) of a rows x cols operand stored in `layout` lives:
/// the one addressing rule that every kernel reading or writing a weight
/// goes through. A row-major operand is a single panel `cols` wide. Within
/// a panel, columns [First(c), First(c) + Stride(c)) of every row are
/// contiguous, and row r + 1 starts Stride(c) floats after row r.
class PanelIndex {
 public:
  PanelIndex(size_t rows, size_t cols, Layout layout)
      : rows_(rows),
        cols_(cols),
        width_(layout == Layout::kPanels ? kPanelColumns
                                          : std::max<size_t>(cols, 1)) {}

  /// First column of the panel that holds column `c`.
  size_t First(size_t c) const { return c - c % width_; }
  /// Width of the panel that holds column `c`, which is its row stride.
  size_t Stride(size_t c) const {
    return std::min(width_, cols_ - First(c));
  }
  /// Offset of element (r, c) from the start of the buffer.
  size_t Offset(size_t r, size_t c) const {
    const size_t first = First(c);
    return first * rows_ + r * Stride(c) + (c - first);
  }

 private:
  size_t rows_, cols_, width_;
};

/// True if this build and this CPU can run `isa` (kPortable always can).
bool IsaSupported(GemmIsa isa);

/// The widest supported instantiation, chosen once on first use; the first
/// call also sets the `common.gemm.isa` gauge.
GemmIsa DispatchedIsa();

/// The GEMMs through the named kernel at every batch size (no cut-over).
/// Same contracts as the public forms; `isa` must be supported. Every
/// instantiation produces bit-identical results, in either layout.
void MatMulIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b, Matrix* out,
                    Layout b_layout = Layout::kRowMajor);
/// MatMul through the column-block kernel, which MatMulInto and
/// MatMulBiasInto run below kPackedMinRows rows, at any batch size.
/// kPortable names its baseline instantiation (4-wide vectors), not the
/// portable oracle that MatMulIntoWith(kPortable, ...) runs; every
/// instantiation reproduces the oracle's bits. A non-null `bias` (1 x n)
/// and `relu` are applied in the kernel's store, with MatMulBiasInto's
/// bits.
void MatMulColumnsIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                           Matrix* out, Layout b_layout = Layout::kRowMajor,
                           const Matrix* bias = nullptr, bool relu = false);
void MatMulTransAIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out);
void MatMulTransBIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out, Layout b_layout = Layout::kRowMajor);
void MatMulTransAAccumulateWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                                Matrix* out,
                                Layout out_layout = Layout::kRowMajor);

}  // namespace magneto::gemm_internal

#endif  // MAGNETO_COMMON_GEMM_INTERNAL_H_
