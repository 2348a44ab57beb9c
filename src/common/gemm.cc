// fp32 GEMM: the portable row-partitioned kernels (the oracle), the packed,
// register-blocked kernel that batches of >= kPackedMinRows rows take, and
// the column-block kernel that smaller MatMul batches (the batch-1 forward)
// take.
//
// Bit-identity contract: every output element is accumulated in exactly the
// portable kernel's order, so results do not depend on the ISA, the batch
// cut-over or the thread count.
//   MatMul  — groups of four k-terms, ((a0*b0 + a1*b1) + a2*b2) + a3*b3,
//             added in k order, then the k % 4 tail one term at a time;
//   TransA  — one k-term at a time, in k order; the accumulating form
//             (out += a^T b) finishes each element's k-sum from +0 first and
//             adds it to out once, as TransA into a temporary followed by
//             Matrix::AddInPlace would;
//   TransB  — Dot's four streams (k mod 4, tail into stream 0), combined as
//             (s0 + s1) + (s2 + s3).
// The packed and column-block kernels use only vector mul and add;
// -ffp-contract=off (src/CMakeLists.txt) keeps the compiler from fusing them
// into FMAs.

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "common/gemm_internal.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define MAGNETO_GEMM_X86 1
#endif

namespace magneto {
namespace gemm_internal {
namespace {

// Target multiply-adds per ParallelFor chunk. Grain sizes derived from this
// depend only on the problem shape (never the worker count), which keeps the
// chunk decomposition — and therefore the results — identical at any thread
// count.
constexpr size_t kFlopsPerChunk = 1u << 21;

// ---- Portable kernels -----------------------------------------------------

// Tile edge chosen so three float tiles fit comfortably in L1.
constexpr size_t kTile = 64;

/// Rows per chunk so one chunk is roughly kFlopsPerChunk multiply-adds.
size_t RowGrain(size_t flops_per_row) {
  return std::max<size_t>(1, kFlopsPerChunk / (flops_per_row + 1));
}

/// Tiled ikj kernel over the output-row range [row0, row1). The kk loop is
/// 4-way unrolled into independent axpy streams over each panel of B's row
/// (one panel when B is row-major): branch-free bodies with contiguous
/// float accumulation that auto-vectorize cleanly. Accumulation order per
/// output row depends only on the k tiling, so row partitioning never
/// changes results.
void MatMulRows(const Matrix& a, const Matrix& b, const PanelIndex& bi,
                Matrix* out, size_t row0, size_t row1) {
  const size_t k = a.cols(), n = b.cols();
  for (size_t i0 = row0; i0 < row1; i0 += kTile) {
    const size_t i1 = std::min(i0 + kTile, row1);
    for (size_t k0 = 0; k0 < k; k0 += kTile) {
      const size_t k1 = std::min(k0 + kTile, k);
      for (size_t i = i0; i < i1; ++i) {
        const float* arow = a.RowPtr(i);
        size_t kk = k0;
        for (; kk + 4 <= k1; kk += 4) {
          const float a0 = arow[kk], a1 = arow[kk + 1];
          const float a2 = arow[kk + 2], a3 = arow[kk + 3];
          for (size_t p = 0; p < n; p += bi.Stride(p)) {
            const size_t w = bi.Stride(p);
            const float* b0 = b.data() + bi.Offset(kk, p);
            const float* b1 = b0 + w;
            const float* b2 = b1 + w;
            const float* b3 = b2 + w;
            float* orow = out->RowPtr(i) + p;
            for (size_t j = 0; j < w; ++j) {
              orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
          }
        }
        for (; kk < k1; ++kk) {
          const float av = arow[kk];
          for (size_t p = 0; p < n; p += bi.Stride(p)) {
            const size_t w = bi.Stride(p);
            const float* brow = b.data() + bi.Offset(kk, p);
            float* orow = out->RowPtr(i) + p;
            for (size_t j = 0; j < w; ++j) orow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void PortableMatMul(const Matrix& a, const Matrix& b, const PanelIndex& bi,
                    Matrix* out) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  out->Reset(m, n);  // the ikj kernel accumulates, so it needs zeros
  const auto rows = [&](size_t row0, size_t row1) {
    MatMulRows(a, b, bi, out, row0, row1);
  };
  // Passed by reference: a std::function holds a reference_wrapper in its
  // small buffer, while this three-reference closure would be copied to the
  // heap on every call. Batch-1 inference forwards come through here, and a
  // warmed stream window must not allocate.
  ParallelFor(0, m, RowGrain(k * n), std::cref(rows));
}

/// TransA, or out += a^T b when `add`, with `out` stored as `oi` says.
/// Partitioned over output rows (columns of a): each row's sum is finished
/// over kk in `sum`, one panel of the row at a time, in the same order as a
/// serial loop, and then stored or added once — so results are
/// bit-identical at any thread count, and the accumulating form matches a
/// separate GEMM plus AddInPlace.
void PortableTransA(const Matrix& a, const Matrix& b, Matrix* out,
                    const PanelIndex& oi, bool add) {
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (!add) out->ResetForOverwrite(m, n);
  ParallelFor(0, m, RowGrain(k * n), [&](size_t i0, size_t i1) {
    std::vector<float> row(add ? n : 0);
    for (size_t i = i0; i < i1; ++i) {
      for (size_t p = 0; p < n; p += oi.Stride(p)) {
        const size_t w = oi.Stride(p);
        float* orow = out->data() + oi.Offset(i, p);
        float* sum = add ? row.data() : orow;
        std::fill(sum, sum + w, 0.0f);
        for (size_t kk = 0; kk < k; ++kk) {
          const float av = a.RowPtr(kk)[i];
          const float* brow = b.RowPtr(kk) + p;
          for (size_t j = 0; j < w; ++j) sum[j] += av * brow[j];
        }
        if (add) {
          for (size_t j = 0; j < w; ++j) orow[j] += sum[j];
        }
      }
    }
  });
}

/// out = a b^T with b (n x k) stored as `bi` says. A row of b that spans
/// panels is gathered once per chunk so Dot reads it contiguously.
void PortableTransB(const Matrix& a, const Matrix& b, const PanelIndex& bi,
                    Matrix* out) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  out->ResetForOverwrite(m, n);  // every element is assigned below
  const bool gather = k > 0 && bi.Stride(0) < k;
  ParallelFor(0, m, RowGrain(k * n), [&](size_t row0, size_t row1) {
    std::vector<float> row(gather ? k : 0);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.RowPtr(j);
      if (gather) {
        for (size_t p = 0; p < k; p += bi.Stride(p)) {
          std::memcpy(row.data() + p, b.data() + bi.Offset(j, p),
                      bi.Stride(p) * sizeof(float));
        }
        brow = row.data();
      }
      for (size_t i = row0; i < row1; ++i) {
        out->At(i, j) = Dot(a.RowPtr(i), brow, k);
      }
    }
  });
}

// ---- Packed kernels -------------------------------------------------------
//
// Work is split over panels of kPanel output columns. A chunk packs the
// k x kPanel slice of B its panel reads into a per-thread buffer (row kk of
// the panel = the kPanel B values output row i multiplies by a[i][kk];
// columns past n are zero) and sweeps every output row through it, a tile of
// kRows rows x kPanel columns of register accumulators at a time. Splitting
// columns, not rows, means each panel is packed exactly once per call, and no
// element's accumulation is ever split between chunks.

constexpr size_t kPanel = 32;

// Every kPanel-wide slice and every 64-wide k block lies inside one
// kPanelColumns-wide weight panel.
static_assert(kPanelColumns % kPanel == 0 && kPanelColumns % 64 == 0);

/// Per-thread, grow-only, 64-byte-aligned storage for one packed panel (at
/// most 128 KiB at k = 1024). Grows to the largest k seen, never shrinks.
float* PanelBuffer(size_t floats) {
  thread_local std::vector<float, CacheAlignedAllocator<float>> buffer;
  if (buffer.size() < floats) buffer.resize(floats);
  return buffer.data();
}

/// Packs b[kk][j0, j0 + cols) for every kk into panel row kk (MatMul and
/// TransA: B is k x n in both, stored as `bi` says).
void PackRows(const Matrix& b, const PanelIndex& bi, size_t j0, size_t cols,
              float* panel) {
  const float* src = b.data() + bi.Offset(0, j0);
  const size_t stride = bi.Stride(j0);
  for (size_t kk = 0; kk < b.rows(); ++kk, src += stride) {
    float* dst = panel + kk * kPanel;
    std::memcpy(dst, src, cols * sizeof(float));
    std::fill(dst + cols, dst + kPanel, 0.0f);
  }
}

/// Packs the transpose of b's rows [j0, j0 + cols) into panel row kk
/// (TransB: B is n x k, stored as `bi` says, so panel row kk holds
/// b[j0 + jj][kk]).
void PackColumns(const Matrix& b, const PanelIndex& bi, size_t j0,
                 size_t cols, float* panel) {
  // Blocks of 64 panel rows (8 KiB) stay in L1 while all columns land.
  constexpr size_t kBlock = 64;
  const size_t k = b.cols();
  for (size_t k0 = 0; k0 < k; k0 += kBlock) {
    const size_t k1 = std::min(k0 + kBlock, k);
    for (size_t jj = 0; jj < cols; ++jj) {
      const float* src = b.data() + bi.Offset(j0 + jj, k0);
      for (size_t kk = k0; kk < k1; ++kk) {
        panel[kk * kPanel + jj] = src[kk - k0];
      }
    }
  }
  if (cols < kPanel) {
    for (size_t kk = 0; kk < k; ++kk) {
      std::fill(panel + kk * kPanel + cols, panel + (kk + 1) * kPanel, 0.0f);
    }
  }
}

/// Operands of one packed GEMM call: the output is m x n, stored as `oi`
/// says, and every element sums over k terms; B is stored as `bi` says.
/// With `add`, each finished sum is added to the output element instead of
/// stored over it.
struct PackedCall {
  const Matrix* a;
  const Matrix* b;
  PanelIndex bi;
  float* out;
  PanelIndex oi;
  size_t m, k, n;
  bool add = false;
};

enum class Op { kMatMul, kTransA, kTransB };

/// The kernel body, written once over a GCC vector of W floats. Everything
/// is always_inline so each instantiation is compiled entirely under the
/// target attribute of the wrapper that calls it (below).
template <int W>
struct Packed {
  typedef float V __attribute__((vector_size(W * sizeof(float))));
  // Unaligned, aliasing view for loads and stores at arbitrary offsets.
  typedef float U __attribute__((vector_size(W * sizeof(float)),
                                 aligned(alignof(float)), may_alias));

  static constexpr size_t kVecs = kPanel / W;
  /// Rows per register tile, sized so the accumulators fill about half the
  /// vector register file (AVX-512: 16 of 32 zmm; AVX2: 12 of 16 ymm) and
  /// the B values and broadcasts of a group fit beside them. TransB keeps
  /// Dot's four streams live per element: 3 rows x 8 zmm on AVX-512, one
  /// row x 16 ymm on AVX2.
  static constexpr size_t kRows = (W == 16 ? 16 : 12) / kVecs;
  static constexpr size_t kStreamRows = W == 16 ? 3 : 1;

  template <size_t R>
  using Tile = V[R][kVecs];

  /// acc[r] = acc[r] + a[r * row_stride + t * k_stride] * panel row t, one
  /// term at a time for t in [0, count).
  template <size_t R>
  [[gnu::always_inline]] static inline void AddTerms(
      Tile<R>& acc, const float* a, size_t row_stride, size_t k_stride,
      const float* panel, size_t count) {
    for (size_t t = 0; t < count; ++t) {
      const float* p = panel + t * kPanel;
      V b[kVecs];
#pragma GCC unroll 8
      for (size_t v = 0; v < kVecs; ++v) {
        b[v] = *reinterpret_cast<const U*>(p + v * W);
      }
#pragma GCC unroll 8
      for (size_t r = 0; r < R; ++r) {
        const float x = a[r * row_stride + t * k_stride];
#pragma GCC unroll 8
        for (size_t v = 0; v < kVecs; ++v) acc[r][v] = acc[r][v] + x * b[v];
      }
    }
  }

  /// acc[r] = acc[r] + (((a0*b0 + a1*b1) + a2*b2) + a3*b3) per group of four
  /// consecutive k-terms, for `groups` groups — the portable MatMul body.
  template <size_t R>
  [[gnu::always_inline]] static inline void AddQuads(Tile<R>& acc,
                                                     const float* a,
                                                     size_t lda,
                                                     const float* panel,
                                                     size_t groups) {
    for (size_t g = 0; g < groups; ++g) {
      const float* p = panel + 4 * g * kPanel;
      V b0[kVecs], b1[kVecs], b2[kVecs], b3[kVecs];
#pragma GCC unroll 8
      for (size_t v = 0; v < kVecs; ++v) {
        b0[v] = *reinterpret_cast<const U*>(p + v * W);
        b1[v] = *reinterpret_cast<const U*>(p + kPanel + v * W);
        b2[v] = *reinterpret_cast<const U*>(p + 2 * kPanel + v * W);
        b3[v] = *reinterpret_cast<const U*>(p + 3 * kPanel + v * W);
      }
#pragma GCC unroll 8
      for (size_t r = 0; r < R; ++r) {
        const float* ar = a + r * lda + 4 * g;
        const float a0 = ar[0], a1 = ar[1], a2 = ar[2], a3 = ar[3];
#pragma GCC unroll 8
        for (size_t v = 0; v < kVecs; ++v) {
          acc[r][v] = acc[r][v] + (((a0 * b0[v] + a1 * b1[v]) + a2 * b2[v]) +
                                   a3 * b3[v]);
        }
      }
    }
  }

  /// Writes the first `cols` columns of each tile row to output rows
  /// [i, i + R) at column j0, or adds them to what is there (out = out +
  /// acc, Matrix::AddInPlace's operand order) when the call adds. A slice
  /// of kPanel columns lies in one panel of the output.
  template <size_t R>
  [[gnu::always_inline]] static inline void Store(const Tile<R>& acc,
                                                  const PackedCall& c,
                                                  size_t i, size_t j0,
                                                  size_t cols) {
    float* out = c.out + c.oi.Offset(i, j0);
    const size_t ldo = c.oi.Stride(j0);
    const bool add = c.add;
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
      float* dst = out + r * ldo;
      if (cols == kPanel) {
#pragma GCC unroll 8
        for (size_t v = 0; v < kVecs; ++v) {
          U* d = reinterpret_cast<U*>(dst + v * W);
          if (add) {
            *d = *d + acc[r][v];
          } else {
            *d = acc[r][v];
          }
        }
      } else {
        float row[kPanel];
#pragma GCC unroll 8
        for (size_t v = 0; v < kVecs; ++v) {
          *reinterpret_cast<U*>(row + v * W) = acc[r][v];
        }
        if (add) {
          for (size_t c = 0; c < cols; ++c) dst[c] = dst[c] + row[c];
        } else {
          std::memcpy(dst, row, cols * sizeof(float));
        }
      }
    }
  }

  template <size_t R>
  [[gnu::always_inline]] static inline void MatMulTile(const PackedCall& c,
                                                       const float* panel,
                                                       size_t i, size_t j0,
                                                       size_t cols) {
    const size_t groups = c.k / 4;
    const float* a = c.a->RowPtr(i);
    Tile<R> acc{};
    AddQuads<R>(acc, a, c.k, panel, groups);
    AddTerms<R>(acc, a + 4 * groups, c.k, 1, panel + 4 * groups * kPanel,
                c.k - 4 * groups);
    Store<R>(acc, c, i, j0, cols);
  }

  template <size_t R>
  [[gnu::always_inline]] static inline void TransATile(const PackedCall& c,
                                                       const float* panel,
                                                       size_t i, size_t j0,
                                                       size_t cols) {
    // a is k x m: output row i reads column i of a.
    Tile<R> acc{};
    AddTerms<R>(acc, c.a->data() + i, 1, c.m, panel, c.k);
    Store<R>(acc, c, i, j0, cols);
  }

  template <size_t R>
  [[gnu::always_inline]] static inline void TransBTile(const PackedCall& c,
                                                       const float* panel,
                                                       size_t i, size_t j0,
                                                       size_t cols) {
    // Dot's four streams side by side: stream s takes the kk = s mod 4 term
    // of each group of four, stream 0 also takes the k % 4 tail.
    const size_t groups = c.k / 4;
    const float* a = c.a->RowPtr(i);
    Tile<R> s0{}, s1{}, s2{}, s3{};
    for (size_t g = 0; g < groups; ++g) {
      const float* p = panel + 4 * g * kPanel;
#pragma GCC unroll 8
      for (size_t r = 0; r < R; ++r) {
        const float* ar = a + r * c.k + 4 * g;
        const float a0 = ar[0], a1 = ar[1], a2 = ar[2], a3 = ar[3];
#pragma GCC unroll 8
        for (size_t v = 0; v < kVecs; ++v) {
          s0[r][v] = s0[r][v] + a0 * *reinterpret_cast<const U*>(p + v * W);
          s1[r][v] =
              s1[r][v] + a1 * *reinterpret_cast<const U*>(p + kPanel + v * W);
          s2[r][v] = s2[r][v] +
                     a2 * *reinterpret_cast<const U*>(p + 2 * kPanel + v * W);
          s3[r][v] = s3[r][v] +
                     a3 * *reinterpret_cast<const U*>(p + 3 * kPanel + v * W);
        }
      }
    }
    AddTerms<R>(s0, a + 4 * groups, c.k, 1, panel + 4 * groups * kPanel,
                c.k - 4 * groups);
    Add<R>(s0, s1);
    Add<R>(s2, s3);
    Add<R>(s0, s2);
    Store<R>(s0, c, i, j0, cols);
  }

  /// dst = dst + src, elementwise.
  template <size_t R>
  [[gnu::always_inline]] static inline void Add(Tile<R>& dst,
                                                const Tile<R>& src) {
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
      for (size_t v = 0; v < kVecs; ++v) dst[r][v] = dst[r][v] + src[r][v];
    }
  }

  template <Op op, size_t R>
  [[gnu::always_inline]] static inline void OpTile(const PackedCall& c,
                                                   const float* panel,
                                                   size_t i, size_t j0,
                                                   size_t cols) {
    if constexpr (op == Op::kMatMul) {
      MatMulTile<R>(c, panel, i, j0, cols);
    } else if constexpr (op == Op::kTransA) {
      TransATile<R>(c, panel, i, j0, cols);
    } else {
      TransBTile<R>(c, panel, i, j0, cols);
    }
  }

  /// The final `left` (< R + 1) rows as one tile of exactly that height, so
  /// they keep as many independent accumulator chains as the shape allows.
  template <Op op, size_t R>
  [[gnu::always_inline]] static inline void LastTile(const PackedCall& c,
                                                     const float* panel,
                                                     size_t i, size_t left,
                                                     size_t j0, size_t cols) {
    if constexpr (R > 0) {
      if (left == R) return OpTile<op, R>(c, panel, i, j0, cols);
      LastTile<op, R - 1>(c, panel, i, left, j0, cols);
    }
  }

  /// Packs panels [p0, p1) one at a time and sweeps every output row through
  /// each: full tiles, then one shorter tile for the rows left over.
  template <Op op>
  [[gnu::always_inline]] static inline void Panels(const PackedCall& c,
                                                   size_t p0, size_t p1) {
    float* panel = PanelBuffer(c.k * kPanel);
    for (size_t p = p0; p < p1; ++p) {
      const size_t j0 = p * kPanel, cols = std::min(kPanel, c.n - j0);
      if constexpr (op == Op::kTransB) {
        PackColumns(*c.b, c.bi, j0, cols, panel);
      } else {
        PackRows(*c.b, c.bi, j0, cols, panel);
      }
      constexpr size_t rows = op == Op::kTransB ? kStreamRows : kRows;
      size_t i = 0;
      for (; i + rows <= c.m; i += rows) {
        OpTile<op, rows>(c, panel, i, j0, cols);
      }
      if (i < c.m) LastTile<op, rows - 1>(c, panel, i, c.m - i, j0, cols);
    }
  }
};

// ---- Column-block kernel (MatMul batches below kPackedMinRows) -------------
//
// A ParallelFor chunk is a block of output columns, and every element of
// the block is finished inside it, so the split never divides a sum. Within
// the block, tiles of R rows x C vectors keep their accumulators in
// registers across all of k and read B where it is stored: a batch-1 layer
// reads each weight once, and the lane that owns a block reads the same
// weights every call. A chunk is at most kPanelColumns wide; with B in
// Layout::kPanels its slice of the weights is one contiguous block, and a
// chunk that straddles a panel edge runs as one sub-block per panel. The
// per-element order is MatMulRows': groups of four k-terms as
// ((a0*b0 + a1*b1) + a2*b2) + a3*b3 in k order, then the k % 4 tail a term
// at a time (its 64-wide k tiles are multiples of four, so only the last
// one has a tail), from a +0 start. The store can finish a layer: with a
// bias row it writes acc + bias (Linear::Forward's bias loop), and with
// `relu` it then writes +0 for every value below zero (Relu::Forward), so a
// batch-1 Linear + ReLU leaves the lanes as one region with nothing left
// for the caller to sweep.

/// Columns per chunk are a multiple of this (the widest vector), so only
/// the last chunk of a row holds a partial vector.
constexpr size_t kColumnQuantum = 16;
/// Widest chunk: one weight panel, 512 contiguous bytes per k row.
constexpr size_t kMaxChunkColumns = kPanelColumns;
/// A layer is cut into at least this many chunks when it is big enough, so
/// a phone-class four-core pool can spread it over every core.
constexpr size_t kMinChunks = 4;
/// Least multiply-adds worth a chunk of their own; a smaller layer is one
/// chunk and runs on its caller.
constexpr size_t kMinChunkMacs = 1u << 14;

/// Columns per chunk for an m x k by k x n product: a kMinChunks-th of n,
/// at most kMaxChunkColumns, and never so narrow that a chunk has fewer
/// than kMinChunkMacs multiply-adds. Depends only on the shape.
size_t ChunkColumns(size_t m, size_t k, size_t n) {
  const size_t min_columns = kMinChunkMacs / std::max<size_t>(1, m * k);
  const size_t columns =
      std::max((n + kMinChunks - 1) / kMinChunks, min_columns);
  const size_t rounded =
      (columns + kColumnQuantum - 1) / kColumnQuantum * kColumnQuantum;
  return std::clamp<size_t>(rounded, kColumnQuantum, kMaxChunkColumns);
}

/// Operands of one column block: out (m x w) = a (m x k) * b (k x w), where
/// a is row-major, row kk of b starts kk * ldb floats after `b`, and output
/// row i starts i * ldo floats after `out`. A non-null `bias` (w floats) is
/// added to every output row, and `relu` then clamps values below zero.
struct ColumnCall {
  const float* a;
  const float* b;
  size_t ldb;
  float* out;
  size_t ldo;
  size_t m, k;
  const float* bias;
  bool relu;
};

/// The kernel body, written once over a GCC vector of W floats (W == 1 is
/// the scalar tail of a row whose width is not a multiple of the vector).
/// Everything is always_inline, as in Packed, so each instantiation compiles
/// under its wrapper's target attribute.
template <int W>
struct Columns {
  typedef float V __attribute__((vector_size(W * sizeof(float))));
  typedef float U __attribute__((vector_size(W * sizeof(float)),
                                 aligned(alignof(float)), may_alias));

  /// Accumulator registers per tile: half the vector register file
  /// (AVX-512: 16 of 32 zmm; AVX2 and SSE: 8 of 16), leaving room for the
  /// four B values of a group and their products.
  static constexpr size_t kAccs = W == 16 ? 16 : 8;
  static constexpr size_t kMaxRows = 4;

  /// Rows [i, i + R) x columns [j, j + C * W) of the output.
  template <size_t R, size_t C>
  [[gnu::always_inline]] static inline void Tile(const ColumnCall& c,
                                                 size_t i, size_t j) {
    const size_t k = c.k, ldb = c.ldb, groups = k / 4;
    const float* a = c.a + i * k;
    const float* b = c.b + j;
    V acc[R][C] = {};
    for (size_t g = 0; g < groups; ++g) {
      const float* b0 = b + 4 * g * ldb;
#pragma GCC unroll 16
      for (size_t v = 0; v < C; ++v) {
        const V x0 = *reinterpret_cast<const U*>(b0 + v * W);
        const V x1 = *reinterpret_cast<const U*>(b0 + ldb + v * W);
        const V x2 = *reinterpret_cast<const U*>(b0 + 2 * ldb + v * W);
        const V x3 = *reinterpret_cast<const U*>(b0 + 3 * ldb + v * W);
#pragma GCC unroll 4
        for (size_t r = 0; r < R; ++r) {
          const float* ar = a + r * k + 4 * g;
          acc[r][v] = acc[r][v] +
                      (((ar[0] * x0 + ar[1] * x1) + ar[2] * x2) + ar[3] * x3);
        }
      }
    }
    for (size_t kk = 4 * groups; kk < k; ++kk) {
#pragma GCC unroll 16
      for (size_t v = 0; v < C; ++v) {
        const V x = *reinterpret_cast<const U*>(b + kk * ldb + v * W);
#pragma GCC unroll 4
        for (size_t r = 0; r < R; ++r) {
          acc[r][v] = acc[r][v] + a[r * k + kk] * x;
        }
      }
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      float* dst = c.out + (i + r) * c.ldo + j;
#pragma GCC unroll 16
      for (size_t v = 0; v < C; ++v) {
        V o = acc[r][v];
        if (c.bias != nullptr) {
          o = o + *reinterpret_cast<const U*>(c.bias + j + v * W);
        }
        if (c.relu) o = o < 0.0f ? V{} : o;
        *reinterpret_cast<U*>(dst + v * W) = o;
      }
    }
  }

  /// The `left` (< C + 1) vectors at the end of a block as one tile.
  template <size_t R, size_t C>
  [[gnu::always_inline]] static inline void LastTile(const ColumnCall& c,
                                                     size_t i, size_t j,
                                                     size_t left) {
    if constexpr (C > 0) {
      if (left == C) return Tile<R, C>(c, i, j);
      LastTile<R, C - 1>(c, i, j, left);
    }
  }

  /// Rows [i, i + R) across columns [j0, j1): full tiles, then one narrower
  /// tile of the whole vectors left. Returns the first column not covered.
  template <size_t R>
  [[gnu::always_inline]] static inline size_t RowTiles(const ColumnCall& c,
                                                       size_t i, size_t j0,
                                                       size_t j1) {
    constexpr size_t kCols =
        std::clamp<size_t>(kAccs / R, 1, kMaxChunkColumns / W);
    size_t j = j0;
    for (; j + kCols * W <= j1; j += kCols * W) Tile<R, kCols>(c, i, j);
    const size_t left = (j1 - j) / W;
    if (left > 0) LastTile<R, kCols - 1>(c, i, j, left);
    return j + left * W;
  }

  /// Every row of the output across columns [j0, j1), in tiles of up to
  /// kMaxRows rows; returns the first column not covered (j1 unless the
  /// block ends in a partial vector).
  [[gnu::always_inline]] static inline size_t Block(const ColumnCall& c,
                                                    size_t j0, size_t j1) {
    size_t i = 0, covered = j1;
    for (; i + kMaxRows <= c.m; i += kMaxRows) {
      covered = RowTiles<kMaxRows>(c, i, j0, j1);
    }
    switch (c.m - i) {
      case 3:
        covered = RowTiles<3>(c, i, j0, j1);
        break;
      case 2:
        covered = RowTiles<2>(c, i, j0, j1);
        break;
      case 1:
        covered = RowTiles<1>(c, i, j0, j1);
        break;
      default:
        break;
    }
    return covered;
  }
};

/// Columns [j0, j1) of the output through the W-wide body, and the columns
/// past the last whole vector one at a time.
template <int W>
[[gnu::always_inline]] inline void ColumnBlock(const ColumnCall& c, size_t j0,
                                               size_t j1) {
  const size_t covered = c.m == 0 ? j1 : Columns<W>::Block(c, j0, j1);
  if (covered < j1) Columns<1>::Block(c, covered, j1);
}

using ColumnFn = void (*)(const ColumnCall&, size_t, size_t);

void ColumnBlockPortable(const ColumnCall& c, size_t j0, size_t j1) {
  ColumnBlock<4>(c, j0, j1);
}

using PanelFn = void (*)(const PackedCall&, size_t, size_t);

struct PackedKernels {
  PanelFn mat_mul;
  PanelFn trans_a;
  PanelFn trans_b;
  ColumnFn columns;
};

#ifdef MAGNETO_GEMM_X86
#define MAGNETO_GEMM_INSTANTIATE(isa, target_name, lanes)                    \
  __attribute__((target(target_name))) void MatMulPanels##isa(               \
      const PackedCall& c, size_t p0, size_t p1) {                           \
    Packed<lanes>::Panels<Op::kMatMul>(c, p0, p1);                           \
  }                                                                          \
  __attribute__((target(target_name))) void TransAPanels##isa(               \
      const PackedCall& c, size_t p0, size_t p1) {                           \
    Packed<lanes>::Panels<Op::kTransA>(c, p0, p1);                           \
  }                                                                          \
  __attribute__((target(target_name))) void TransBPanels##isa(               \
      const PackedCall& c, size_t p0, size_t p1) {                           \
    Packed<lanes>::Panels<Op::kTransB>(c, p0, p1);                           \
  }                                                                          \
  __attribute__((target(target_name))) void ColumnBlock##isa(                \
      const ColumnCall& c, size_t j0, size_t j1) {                           \
    ColumnBlock<lanes>(c, j0, j1);                                           \
  }                                                                          \
  constexpr PackedKernels k##isa##Kernels{                                   \
      MatMulPanels##isa, TransAPanels##isa, TransBPanels##isa,               \
      ColumnBlock##isa};

MAGNETO_GEMM_INSTANTIATE(Avx2, "avx2", 8)
MAGNETO_GEMM_INSTANTIATE(Avx512f, "avx512f", 16)
#undef MAGNETO_GEMM_INSTANTIATE
#endif  // MAGNETO_GEMM_X86

/// The packed kernels for `isa`, or null for the portable one. Fails loudly
/// on an instantiation this host cannot run.
const PackedKernels* KernelsFor(GemmIsa isa) {
  MAGNETO_CHECK(IsaSupported(isa));
#ifdef MAGNETO_GEMM_X86
  switch (isa) {
    case GemmIsa::kAvx2:
      return &kAvx2Kernels;
    case GemmIsa::kAvx512f:
      return &kAvx512fKernels;
    case GemmIsa::kPortable:
      break;
  }
#else
  (void)isa;
#endif
  return nullptr;
}

/// Runs `fn` over every column panel of the output. The grain (panels per
/// chunk) depends only on the shape.
void RunPanels(PanelFn fn, const PackedCall& call) {
  const size_t panels = (call.n + kPanel - 1) / kPanel;
  const size_t grain =
      std::max<size_t>(1, kFlopsPerChunk / (call.m * call.k * kPanel + 1));
  ParallelFor(0, panels, grain,
              [&](size_t p0, size_t p1) { fn(call, p0, p1); });
}

/// Runs the column-block kernel for `isa` over every column chunk of
/// out = a * b (+ bias, then ReLU, as the call asks), with b stored as `bi`
/// says: each chunk as one sub-block per panel it touches. The closure goes
/// to ParallelFor by std::cref: it would not fit std::function's small
/// buffer, and a warmed stream window must not allocate.
void RunColumns(GemmIsa isa, const Matrix& a, const Matrix& b,
                const PanelIndex& bi, const float* bias, bool relu,
                Matrix* out) {
  const PackedKernels* kernels = KernelsFor(isa);
  const ColumnFn fn = kernels == nullptr ? ColumnBlockPortable
                                         : kernels->columns;
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  const auto block = [&](size_t j0, size_t j1) {
    for (size_t j = j0; j < j1;) {
      const size_t end = std::min(j1, bi.First(j) + bi.Stride(j));
      fn({a.data(), b.data() + bi.Offset(0, j), bi.Stride(j),
          out->data() + j, n, m, k, bias == nullptr ? nullptr : bias + j,
          relu},
         0, end - j);
      j = end;
    }
  };
  ParallelFor(0, n, ChunkColumns(m, k, n), std::cref(block));
}

GemmIsa BatchIsa(const Matrix& a) {
  const GemmIsa isa = DispatchedIsa();
  return a.rows() >= kPackedMinRows ? isa : GemmIsa::kPortable;
}

}  // namespace

bool IsaSupported(GemmIsa isa) {
  if (isa == GemmIsa::kPortable) return true;
#ifdef MAGNETO_GEMM_X86
  // Idempotent; needed only if a GEMM runs in a static initializer, before
  // libgcc's own constructor has read the CPU features.
  __builtin_cpu_init();
  return isa == GemmIsa::kAvx2 ? __builtin_cpu_supports("avx2")
                               : __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

GemmIsa DispatchedIsa() {
  static const GemmIsa isa = [] {
    GemmIsa best = GemmIsa::kPortable;
    for (GemmIsa candidate : {GemmIsa::kAvx2, GemmIsa::kAvx512f}) {
      if (IsaSupported(candidate)) best = candidate;
    }
    obs::Registry::Global().GetGauge("common.gemm.isa")->Set(
        static_cast<double>(best));
    return best;
  }();
  return isa;
}

void MatMulIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b, Matrix* out,
                    Layout b_layout) {
  MAGNETO_CHECK(a.cols() == b.rows());
  MAGNETO_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  const PanelIndex bi(k, n, b_layout);
  const PackedKernels* kernels = KernelsFor(isa);
  if (kernels == nullptr) return PortableMatMul(a, b, bi, out);
  out->ResetForOverwrite(m, n);  // every element is stored
  RunPanels(kernels->mat_mul,
            {&a, &b, bi, out->data(), PanelIndex(m, n, Layout::kRowMajor), m,
             k, n});
}

void MatMulColumnsIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                           Matrix* out, Layout b_layout, const Matrix* bias,
                           bool relu) {
  MAGNETO_CHECK(a.cols() == b.rows());
  MAGNETO_CHECK(out != &a && out != &b);
  MAGNETO_CHECK(bias == nullptr ||
                (bias->rows() == 1 && bias->cols() == b.cols()));
  out->ResetForOverwrite(a.rows(), b.cols());  // every element is stored
  RunColumns(isa, a, b, PanelIndex(b.rows(), b.cols(), b_layout),
             bias == nullptr ? nullptr : bias->data(), relu, out);
}

void MatMulTransAIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out) {
  MAGNETO_CHECK(a.rows() == b.rows());
  MAGNETO_CHECK(out != &a && out != &b);
  const size_t m = a.cols(), k = a.rows(), n = b.cols();
  const PanelIndex rows(k, n, Layout::kRowMajor), oi(m, n, Layout::kRowMajor);
  const PackedKernels* kernels = KernelsFor(isa);
  if (kernels == nullptr) return PortableTransA(a, b, out, oi, /*add=*/false);
  out->ResetForOverwrite(m, n);
  RunPanels(kernels->trans_a, {&a, &b, rows, out->data(), oi, m, k, n});
}

void MatMulTransAAccumulateWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                                Matrix* out, Layout out_layout) {
  MAGNETO_CHECK(a.rows() == b.rows());
  MAGNETO_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  MAGNETO_CHECK(out != &a && out != &b);
  const size_t m = a.cols(), k = a.rows(), n = b.cols();
  const PanelIndex rows(k, n, Layout::kRowMajor), oi(m, n, out_layout);
  const PackedKernels* kernels = KernelsFor(isa);
  if (kernels == nullptr) return PortableTransA(a, b, out, oi, /*add=*/true);
  RunPanels(kernels->trans_a,
            {&a, &b, rows, out->data(), oi, m, k, n, /*add=*/true});
}

void MatMulTransBIntoWith(GemmIsa isa, const Matrix& a, const Matrix& b,
                          Matrix* out, Layout b_layout) {
  MAGNETO_CHECK(a.cols() == b.cols());
  MAGNETO_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  const PanelIndex bi(n, k, b_layout);
  const PackedKernels* kernels = KernelsFor(isa);
  if (kernels == nullptr) return PortableTransB(a, b, bi, out);
  out->ResetForOverwrite(m, n);
  RunPanels(kernels->trans_b,
            {&a, &b, bi, out->data(), PanelIndex(m, n, Layout::kRowMajor), m,
             k, n});
}

}  // namespace gemm_internal

using gemm_internal::BatchIsa;

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                Layout b_layout) {
  const gemm_internal::GemmIsa isa = gemm_internal::DispatchedIsa();
  if (a.rows() < gemm_internal::kPackedMinRows) {
    return gemm_internal::MatMulColumnsIntoWith(isa, a, b, out, b_layout);
  }
  gemm_internal::MatMulIntoWith(isa, a, b, out, b_layout);
}

void MatMulBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias,
                    bool relu, Matrix* out, Layout b_layout) {
  MAGNETO_CHECK(out != &bias);
  MAGNETO_CHECK(bias.rows() == 1 && bias.cols() == b.cols());
  const gemm_internal::GemmIsa isa = gemm_internal::DispatchedIsa();
  if (a.rows() < gemm_internal::kPackedMinRows) {
    return gemm_internal::MatMulColumnsIntoWith(isa, a, b, out, b_layout,
                                                &bias, relu);
  }
  gemm_internal::MatMulIntoWith(isa, a, b, out, b_layout);
  const float* bias_row = bias.data();
  for (size_t r = 0; r < out->rows(); ++r) {
    float* row = out->RowPtr(r);
    for (size_t c = 0; c < out->cols(); ++c) {
      const float o = row[c] + bias_row[c];
      row[c] = relu && o < 0.0f ? 0.0f : o;
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  gemm_internal::MatMulTransAIntoWith(BatchIsa(a), a, b, out);
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransAInto(a, b, &out);
  return out;
}

void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* out,
                            Layout out_layout) {
  gemm_internal::MatMulTransAAccumulateWith(BatchIsa(a), a, b, out,
                                            out_layout);
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                      Layout b_layout) {
  gemm_internal::MatMulTransBIntoWith(BatchIsa(a), a, b, out, b_layout);
}

void RowMajorToPanels(size_t rows, size_t cols, const void* src,
                      float* dst) {
  const gemm_internal::PanelIndex index(rows, cols, Layout::kPanels);
  const auto* bytes = static_cast<const unsigned char*>(src);
  for (size_t p = 0; p < cols; p += index.Stride(p)) {
    for (size_t r = 0; r < rows; ++r) {
      std::memcpy(dst + index.Offset(r, p),
                  bytes + (r * cols + p) * sizeof(float),
                  index.Stride(p) * sizeof(float));
    }
  }
}

void PanelsToRowMajor(size_t rows, size_t cols, const float* src,
                      float* dst) {
  const gemm_internal::PanelIndex index(rows, cols, Layout::kPanels);
  for (size_t p = 0; p < cols; p += index.Stride(p)) {
    for (size_t r = 0; r < rows; ++r) {
      std::memcpy(dst + r * cols + p, src + index.Offset(r, p),
                  index.Stride(p) * sizeof(float));
    }
  }
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransBInto(a, b, &out);
  return out;
}

}  // namespace magneto
