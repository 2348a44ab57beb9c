#include "core/scan_rows.h"

#include <algorithm>

namespace magneto::core {

ScanRows::ScanRows(const Matrix& rows)
    : dim_(rows.cols()), rows_(rows.data(), rows.data() + rows.size()) {}

void ScanRows::Insert(size_t r, const float* v) {
  rows_.insert(rows_.begin() + r * dim_, v, v + dim_);
}

void ScanRows::Erase(size_t r) {
  rows_.erase(rows_.begin() + r * dim_, rows_.begin() + (r + 1) * dim_);
}

void ScanRows::CopyRow(size_t r, float* out) const {
  std::copy(rows_.begin() + r * dim_, rows_.begin() + (r + 1) * dim_, out);
}

}  // namespace magneto::core
