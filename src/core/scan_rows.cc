#include "core/scan_rows.h"

namespace magneto::core {

ScanRows::ScanRows(const Matrix& rows)
    : dim_(rows.cols()),
      rows_(rows.rows()),
      f32_(rows.data(), rows.data() + rows.size()) {}

void ScanRows::Insert(size_t r, const float* v) {
  ++rows_;
  if (quantized_) {
    q_.insert(q_.begin() + r * dim_, dim_, 0);
    int8_t* q = q_.data() + r * dim_;
    scales_.insert(scales_.begin() + r, QuantizeRowInt8(v, dim_, q));
    norms_.insert(norms_.begin() + r, SquaredNormInt8(q, dim_));
  } else {
    f32_.insert(f32_.begin() + r * dim_, v, v + dim_);
  }
}

void ScanRows::Erase(size_t r) {
  --rows_;
  if (quantized_) {
    q_.erase(q_.begin() + r * dim_, q_.begin() + (r + 1) * dim_);
    scales_.erase(scales_.begin() + r);
    norms_.erase(norms_.begin() + r);
  } else {
    f32_.erase(f32_.begin() + r * dim_, f32_.begin() + (r + 1) * dim_);
  }
}

void ScanRows::Quantize() {
  ScanRows out(dim_);
  out.quantized_ = true;
  std::vector<float> row(dim_);
  for (size_t r = 0; r < rows_; ++r) {
    CopyRow(r, row.data());
    out.Insert(r, row.data());
  }
  *this = std::move(out);
}

void ScanRows::CopyRow(size_t r, float* out) const {
  if (quantized_) {
    const int8_t* q = q_.data() + r * dim_;
    for (size_t i = 0; i < dim_; ++i) {
      out[i] = static_cast<float>(q[i]) * scales_[r];
    }
  } else {
    std::copy(f32_.begin() + r * dim_, f32_.begin() + (r + 1) * dim_, out);
  }
}

ScanRows::Query ScanRows::Prepare(const float* x,
                                  std::vector<int8_t>* q_buf) const {
  Query query;
  query.x = x;
  if (quantized_) {
    q_buf->resize(dim_);
    query.q = q_buf->data();
    query.scale = QuantizeRowInt8(x, dim_, q_buf->data());
    query.norm = SquaredNormInt8(query.q, dim_);
  }
  return query;
}

}  // namespace magneto::core
