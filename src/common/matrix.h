#ifndef MAGNETO_COMMON_MATRIX_H_
#define MAGNETO_COMMON_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace magneto {

/// Dense row-major float matrix.
///
/// This is the numeric workhorse under `magneto::nn`. Single precision is a
/// deliberate choice: the paper sizes its Edge payload in "32-bit precision"
/// (200 observations/class ~= 0.5 MB), so the on-device numeric type is
/// float32. The heavy kernels (GEMM, Axpy) run on the shared `ThreadPool`
/// (common/parallel.h). GEMM batches of 16 rows or more go to a packed,
/// register-blocked kernel built for the host's widest vector ISA
/// (common/gemm.cc); every GEMM kernel accumulates each output element in
/// one fixed order, so results are bit-identical at any ISA and thread
/// count.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a `rows` x `cols` matrix, zero-initialised.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {
    if (!data_.empty()) BumpAllocations();
  }

  /// Creates a matrix from row-major data. `data.size()` must be rows*cols.
  Matrix(size_t rows, size_t cols, std::vector<float> data);

  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    if (!data_.empty()) BumpAllocations();
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      if (other.data_.size() > data_.capacity()) BumpAllocations();
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = other.data_;
    }
    return *this;
  }
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Process-wide count of float-buffer heap allocations caused by Matrix
  /// construction, copies, and capacity growth. Monotone; read deltas to
  /// measure the allocation cost of a code path (see bench_parallel_scaling's
  /// forward-pass workload).
  static uint64_t AllocationCount();

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) {
    MAGNETO_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    MAGNETO_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float& operator()(size_t r, size_t c) { return At(r, c); }
  float operator()(size_t r, size_t c) const { return At(r, c); }

  float* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& storage() const { return data_; }

  /// Copies row `r` into a new vector.
  std::vector<float> Row(size_t r) const;

  /// Overwrites row `r` with `values` (size must equal cols()).
  void SetRow(size_t r, const std::vector<float>& values);

  void Fill(float value);

  /// Resizes to rows x cols, discarding contents (zero-filled). Keeps the
  /// existing capacity, so a buffer reused at a stable shape never
  /// reallocates.
  void Reset(size_t rows, size_t cols);

  /// Resizes to rows x cols without the zero-fill guarantee: elements carry
  /// arbitrary values and every one must be written before it is read. For
  /// reusable output buffers whose kernel overwrites the full matrix.
  void ResetForOverwrite(size_t rows, size_t cols);

  /// Overwrites this matrix with a copy of `src`, reusing capacity.
  void CopyFrom(const Matrix& src);

  // -- Elementwise / scalar ops (in place) -----------------------------------

  Matrix& AddInPlace(const Matrix& other);
  Matrix& SubInPlace(const Matrix& other);
  Matrix& MulInPlace(const Matrix& other);  ///< Hadamard product.
  Matrix& Scale(float s);

  /// this += s * other  (AXPY). Shapes must match.
  Matrix& Axpy(float s, const Matrix& other);

  // -- Producers --------------------------------------------------------------

  Matrix Transposed() const;

  /// Returns rows [begin, end) as a new (end-begin) x cols matrix.
  Matrix RowSlice(size_t begin, size_t end) const;

  // -- Reductions --------------------------------------------------------------

  float SumOfSquares() const;
  float AbsMax() const;

  /// Column means as a 1 x cols matrix.
  Matrix ColMean() const;

  /// Sum over rows as a 1 x cols matrix.
  Matrix ColSum() const;

  /// ColSum into a caller-owned buffer, resized in place (no allocation at
  /// a stable shape). `out` must not be this matrix.
  void ColSumInto(Matrix* out) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  static void BumpAllocations();

  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n), without
/// materialising the transpose.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n), without
/// materialising the transpose.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

// Allocation-free variants of the three GEMMs: identical kernels and chunk
// decomposition (so results are bit-identical to the producer forms), but the
// result lands in a caller-owned buffer that is resized in place — a buffer
// reused at a stable shape never touches the allocator. `out` must not alias
// `a` or `b`.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out);
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out += a^T * b, for an `out` already shaped (m x n). Each element's
/// k-sum is finished first and added to `out` once, so the result is
/// bit-identical to MatMulTransAInto into a temporary followed by
/// `out->AddInPlace(temporary)` — without the temporary or the second pass.
/// `out` must not alias `a` or `b`.
void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* out);

/// Stacks `top` above `bottom` (column counts must match).
Matrix VStack(const Matrix& top, const Matrix& bottom);

/// Squared L2 distance between two equal-length float spans.
float SquaredL2(const float* a, const float* b, size_t n);

/// Dot product of two equal-length float spans.
float Dot(const float* a, const float* b, size_t n);

}  // namespace magneto

#endif  // MAGNETO_COMMON_MATRIX_H_
