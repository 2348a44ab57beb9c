#ifndef MAGNETO_COMMON_MATRIX_H_
#define MAGNETO_COMMON_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"

namespace magneto {

/// std::allocator with 64-byte alignment: a buffer starts on a cache line,
/// so a 64-byte vector load at a multiple of 16 floats never spans two.
/// It over-allocates 64 bytes from plain operator new and keeps the block's
/// address just below the aligned pointer. (operator new with an
/// align_val_t goes to glibc's memalign, whose split blocks fragmented the
/// heap enough to raise the stream's peak RSS by about 6 MiB.)
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr size_t kAlignment = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    char* block =
        static_cast<char*>(::operator new(n * sizeof(T) + kAlignment));
    // operator new aligns to at least 16, so there are 16 or more bytes
    // below the aligned pointer for the block's address.
    char* aligned =
        block + (kAlignment - reinterpret_cast<uintptr_t>(block) % kAlignment);
    std::memcpy(aligned - sizeof(block), &block, sizeof(block));
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, size_t) {
    char* block;
    std::memcpy(&block, reinterpret_cast<char*>(p) - sizeof(block),
                sizeof(block));
    ::operator delete(block);
  }
  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

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
/// count. The buffer is 64-byte aligned (CacheAlignedAllocator).
class Matrix {
 public:
  using Storage = std::vector<float, CacheAlignedAllocator<float>>;

  Matrix() : rows_(0), cols_(0) {}

  /// Creates a `rows` x `cols` matrix, zero-initialised.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {
    if (!data_.empty()) BumpAllocations();
  }

  /// Creates a matrix from row-major data. `data.size()` must be rows*cols.
  Matrix(size_t rows, size_t cols, const std::vector<float>& data);

  /// A matrix that adopts `data` (rows*cols floats) without copying it.
  static Matrix Adopt(size_t rows, size_t cols, Storage data);

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
  std::span<const float> storage() const { return data_; }

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
  Storage data_;
};

/// How a GEMM operand stores its elements.
///   kRowMajor — row after row, as every Matrix does unless stated;
///   kPanels   — the columns are cut into panels of kPanelColumns (the last
///               one narrower); each panel is a rows x width row-major
///               block, and the panels follow one another. A matrix of at
///               most kPanelColumns columns is the same in both.
/// nn::Linear keeps its weight (and weight gradient) in kPanels: the
/// batch-1 kernel splits a layer into chunks of at most kPanelColumns
/// output columns, and each chunk then reads one contiguous, 64-byte
/// aligned block of the weights (common/gemm_internal.h).
enum class Layout { kRowMajor, kPanels };
inline constexpr size_t kPanelColumns = 128;

/// Copies the rows x cols row-major floats at `src` (any alignment) to
/// `dst` in Layout::kPanels. The two must not overlap.
void RowMajorToPanels(size_t rows, size_t cols, const void* src, float* dst);
/// Copies rows x cols floats stored in Layout::kPanels at `src` to
/// row-major `dst`. The two must not overlap.
void PanelsToRowMajor(size_t rows, size_t cols, const float* src, float* dst);

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
// `a` or `b`. `b_layout` says how `b` is stored; the output is row-major, and
// the result does not depend on the layout.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                Layout b_layout = Layout::kRowMajor);
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out);
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                      Layout b_layout = Layout::kRowMajor);

/// out = a * b with the 1 x n `bias` added to every row and then, with
/// `relu`, every value below zero replaced by +0: the bits of MatMulInto
/// followed by `o = o + bias[j]` and `o < 0 ? 0 : o` per element (NaN and
/// -0 pass the clamp), in one call. Below the packed cut-over the
/// column-block kernel applies both as it stores each block, so a batch-1
/// layer hands the pool one region and the caller no further pass. `out`
/// must not alias `a`, `b` or `bias`.
void MatMulBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias,
                    bool relu, Matrix* out,
                    Layout b_layout = Layout::kRowMajor);

/// out += a^T * b, for an `out` already shaped (m x n) and stored in
/// `out_layout`. Each element's k-sum is finished first and added to `out`
/// once, so the result is bit-identical to MatMulTransAInto into a temporary
/// followed by `out->AddInPlace(temporary)` — without the temporary or the
/// second pass. `out` must not alias `a` or `b`.
void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* out,
                            Layout out_layout = Layout::kRowMajor);

/// Stacks `top` above `bottom` (column counts must match).
Matrix VStack(const Matrix& top, const Matrix& bottom);

/// Squared L2 distance between two equal-length float spans.
float SquaredL2(const float* a, const float* b, size_t n);

/// Dot product of two equal-length float spans.
float Dot(const float* a, const float* b, size_t n);

}  // namespace magneto

#endif  // MAGNETO_COMMON_MATRIX_H_
