#ifndef MAGNETO_CORE_SCAN_ROWS_H_
#define MAGNETO_CORE_SCAN_ROWS_H_

#include <cmath>
#include <limits>
#include <vector>

#include "common/matrix.h"

namespace magneto::core {

/// The fp32 row store and distance kernel shared by `NcmClassifier` (one row
/// per class prototype) and `KnnClassifier` (one row per support exemplar).
/// Each classifier keeps only its own ranking and labels on top.
class ScanRows {
 public:
  ScanRows() = default;
  /// An empty store of `dim`-wide rows.
  explicit ScanRows(size_t dim) : dim_(dim) {}
  /// A store holding the rows of `rows`.
  explicit ScanRows(const Matrix& rows);

  size_t dim() const { return dim_; }

  /// Inserts (`v` has length `dim()`) / erases row `r`.
  void Insert(size_t r, const float* v);
  void Erase(size_t r);

  /// Writes row `r` to `out`.
  void CopyRow(size_t r, float* out) const;

  /// Bytes of stored rows.
  size_t MemoryBytes() const { return rows_.size() * sizeof(float); }

  /// Squared distance from `x` (length `dim()`) to row `r`: the float
  /// `SquaredL2`. Non-finite results map to +inf, since a NaN would break
  /// the strict weak ordering of the callers' sorts — UB, not just a bad
  /// ranking.
  double SquaredDistance(const float* x, size_t r) const {
    const double d2 = SquaredL2(x, rows_.data() + r * dim_, dim_);
    return std::isfinite(d2) ? d2 : std::numeric_limits<double>::infinity();
  }

 private:
  size_t dim_ = 0;
  std::vector<float> rows_;  ///< row-major, one `dim_`-wide row each
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_SCAN_ROWS_H_
