#ifndef MAGNETO_PREPROCESS_FEATURES_H_
#define MAGNETO_PREPROCESS_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace magneto::preprocess {

/// Number of hand-crafted statistical features per window (§4.1.2: "We
/// extract 80 statistical features").
inline constexpr size_t kNumFeatures = 80;

/// The paper's "primary feature extractor that relies on handcrafted
/// statistic features, requiring linear processing time" (§3.2 item 1).
///
/// Layout of the 80-dimensional vector, computed on one window
/// (window_samples x 22 channels):
///
///   [0..44]  per-axis stats on the 9 motion channels
///            (acc x/y/z, gyro x/y/z, lin_acc x/y/z):
///            mean, std, min, max, zero-crossing rate       (9 x 5 = 45)
///   [45..68] magnitude-signal stats on |acc|, |gyro|, |lin_acc|:
///            mean, std, skewness, kurtosis, energy,
///            mean |diff|, autocorr(lag=win/10), IQR        (3 x 8 = 24)
///   [69..71] accelerometer cross-axis Pearson correlations
///            (xy, xz, yz)                                  (3)
///   [72..79] context stats: gravity_z mean, rotation std (avg of 3 axes),
///            magnetometer std (avg of 3 axes), pressure mean, light mean,
///            proximity mean, speed mean, speed std         (8)
///
/// Every statistic is O(window): the IQR's sort is a radix sort over the
/// magnitude bits (a signal holding a NaN takes `std::sort`,
/// O(window log window) on a 120-sample window), so the pipeline stays
/// linear in stream length.
///
/// The statistics are computed in two sweeps over the rows with all 22
/// channels side by side: sums, min/max and the magnitude signals first,
/// then the centred moments, zero crossings and cross-axis products around
/// the means of the first sweep. Every accumulator adds the same terms in
/// the same order as the one-statistic-at-a-time definitions in
/// `common/math_utils.h`, so the features are bit-identical to them.
class FeatureExtractor {
 public:
  /// Reusable buffers for one extraction. Grown to the window length on
  /// first use, then reused: a warmed scratch makes `Extract` allocation-free.
  /// One per concurrent caller.
  struct Scratch {
    std::vector<float> magnitude;  ///< |acc|, |gyro|, |lin_acc| back to back
    std::vector<float> sorted;     ///< one magnitude signal, sorted for IQR
    std::vector<uint32_t> keys;    ///< the radix sort's two key buffers
  };

  FeatureExtractor() = default;

  /// Computes the 80 features on `window` (rows = time, 22 columns) into
  /// `out[0, kNumFeatures)`. Fails with kInvalidArgument if the window has
  /// the wrong channel count or fewer than 2 samples.
  Status Extract(const Matrix& window, Scratch* scratch, float* out) const;

  /// Returns the 80 features; a wrapper over the overload above.
  Result<std::vector<float>> Extract(const Matrix& window) const;

  /// Stable names for each of the 80 dimensions, for docs and debugging.
  static const std::vector<std::string>& FeatureNames();
};

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_FEATURES_H_
