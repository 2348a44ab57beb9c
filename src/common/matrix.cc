#include "common/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/parallel.h"

namespace magneto {

namespace {
std::atomic<uint64_t> g_matrix_allocations{0};
}  // namespace

void Matrix::BumpAllocations() {
  g_matrix_allocations.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Matrix::AllocationCount() {
  return g_matrix_allocations.load(std::memory_order_relaxed);
}

Matrix::Matrix(size_t rows, size_t cols, const std::vector<float>& data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  MAGNETO_CHECK(data_.size() == rows_ * cols_);
  if (!data_.empty()) BumpAllocations();
}

Matrix Matrix::Adopt(size_t rows, size_t cols, Storage data) {
  MAGNETO_CHECK(data.size() == rows * cols);
  Matrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.data_ = std::move(data);
  return out;
}

std::vector<float> Matrix::Row(size_t r) const {
  MAGNETO_CHECK(r < rows_);
  return std::vector<float>(RowPtr(r), RowPtr(r) + cols_);
}

void Matrix::SetRow(size_t r, const std::vector<float>& values) {
  MAGNETO_CHECK(r < rows_);
  MAGNETO_CHECK(values.size() == cols_);
  std::memcpy(RowPtr(r), values.data(), cols_ * sizeof(float));
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Reset(size_t rows, size_t cols) {
  if (rows * cols > data_.capacity()) BumpAllocations();
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::ResetForOverwrite(size_t rows, size_t cols) {
  if (rows * cols > data_.capacity()) BumpAllocations();
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::CopyFrom(const Matrix& src) {
  MAGNETO_CHECK(this != &src);
  ResetForOverwrite(src.rows_, src.cols_);
  std::memcpy(data_.data(), src.data_.data(), data_.size() * sizeof(float));
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  MAGNETO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::SubInPlace(const Matrix& other) {
  MAGNETO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::MulInPlace(const Matrix& other) {
  MAGNETO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::Scale(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::Axpy(float s, const Matrix& other) {
  MAGNETO_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  ParallelFor(0, data_.size(), size_t{1} << 16, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) dst[i] += s * src[i];
  });
  return *this;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const float* src = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) out.data()[c * rows_ + r] = src[c];
  }
  return out;
}

Matrix Matrix::RowSlice(size_t begin, size_t end) const {
  MAGNETO_CHECK(begin <= end && end <= rows_);
  Matrix out(end - begin, cols_);
  std::memcpy(out.data(), data_.data() + begin * cols_,
              (end - begin) * cols_ * sizeof(float));
  return out;
}

float Matrix::SumOfSquares() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

float Matrix::AbsMax() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix Matrix::ColMean() const {
  Matrix out = ColSum();
  if (rows_ > 0) out.Scale(1.0f / static_cast<float>(rows_));
  return out;
}

Matrix Matrix::ColSum() const {
  Matrix out;
  ColSumInto(&out);
  return out;
}

void Matrix::ColSumInto(Matrix* out) const {
  MAGNETO_CHECK(out != this);
  out->Reset(1, cols_);
  float* dst = out->data();
  for (size_t r = 0; r < rows_; ++r) {
    const float* src = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
}

std::string Matrix::ShapeString() const {
  std::ostringstream os;
  os << "[" << rows_ << " x " << cols_ << "]";
  return os.str();
}

Matrix VStack(const Matrix& top, const Matrix& bottom) {
  if (top.rows() == 0) return bottom;
  if (bottom.rows() == 0) return top;
  MAGNETO_CHECK(top.cols() == bottom.cols());
  Matrix out(top.rows() + bottom.rows(), top.cols());
  std::memcpy(out.data(), top.data(), top.size() * sizeof(float));
  std::memcpy(out.RowPtr(top.rows()), bottom.data(),
              bottom.size() * sizeof(float));
  return out;
}

// Dot and SquaredL2 use four independent float accumulators: the streams
// break the loop-carried dependency so the compiler can keep one vector
// register per stream, and the fixed combine order keeps results identical
// for a given n regardless of the calling context.

float SquaredL2(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

float Dot(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

}  // namespace magneto
