#ifndef MAGNETO_CORE_SCAN_ROWS_H_
#define MAGNETO_CORE_SCAN_ROWS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/matrix.h"
#include "common/qgemm.h"

namespace magneto::core {

/// The row store and distance kernel shared by `NcmClassifier` (one row per
/// class prototype) and `KnnClassifier` (one row per support exemplar).
///
/// Rows are either fp32 or symmetric per-row int8 with their scale and exact
/// integer norm Σq². An int8 store scans with the exact-rescale distance
///   d² = sq²·Σqx² − 2·sq·si·(qx·qi) + si²·Σqi²
/// over exact int32 dot products, so the only approximation is the int8
/// rounding of the vectors themselves. Each classifier keeps only its own
/// ranking and labels on top.
class ScanRows {
 public:
  /// One query ready to scan: the fp32 vector and, for an int8 store, its
  /// quantized copy with scale and exact norm (quantized once per query).
  struct Query {
    const float* x = nullptr;
    const int8_t* q = nullptr;
    double scale = 0.0;
    int32_t norm = 0;
  };

  ScanRows() = default;
  /// An empty fp32 store of `dim`-wide rows.
  explicit ScanRows(size_t dim) : dim_(dim) {}
  /// An fp32 store holding the rows of `rows`.
  explicit ScanRows(const Matrix& rows);

  size_t dim() const { return dim_; }
  bool quantized() const { return quantized_; }

  /// Inserts / erases row `r`. An int8 store quantizes `v` (length
  /// `dim()`) on entry.
  void Insert(size_t r, const float* v);
  void Erase(size_t r);

  /// Switches to int8 and drops the fp32 copy. Every row is quantized from
  /// its current value — the dequantized one if the store is already int8.
  void Quantize();

  /// Writes row `r` as fp32 to `out` (int8 store: the dequantized q·scale).
  void CopyRow(size_t r, float* out) const;

  /// Bytes of stored rows (int8 store: codes + scales + norms).
  size_t MemoryBytes() const {
    return f32_.size() * sizeof(float) + q_.size() +
           scales_.size() * sizeof(float) + norms_.size() * sizeof(int32_t);
  }

  /// Prepares `x` (length `dim()`) for scanning. An int8 store quantizes it
  /// into `q_buf`, which must outlive the returned query.
  Query Prepare(const float* x, std::vector<int8_t>* q_buf) const;

  /// Squared distance from `query` to row `r`. fp32 rows return the float
  /// `SquaredL2`; int8 rows the exact-rescale d² clamped at 0. Non-finite
  /// results map to +inf, since a NaN would break the strict weak ordering
  /// of the callers' sorts — UB, not just a bad ranking.
  double SquaredDistance(const Query& query, size_t r) const {
    double d2;
    if (quantized_) {
      const double si = scales_[r];
      d2 = std::max(0.0, query.scale * query.scale * query.norm -
                             2.0 * query.scale * si *
                                 DotInt8(query.q, q_.data() + r * dim_, dim_) +
                             si * si * norms_[r]);
    } else {
      d2 = SquaredL2(query.x, f32_.data() + r * dim_, dim_);
    }
    return std::isfinite(d2) ? d2 : std::numeric_limits<double>::infinity();
  }

 private:
  size_t dim_ = 0;
  size_t rows_ = 0;
  bool quantized_ = false;
  std::vector<float> f32_;      ///< rows x dim (fp32 store; empty when int8)
  std::vector<int8_t> q_;       ///< rows x dim (int8 store)
  std::vector<float> scales_;   ///< int8 store: per-row scale
  std::vector<int32_t> norms_;  ///< int8 store: per-row Σq²
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_SCAN_ROWS_H_
