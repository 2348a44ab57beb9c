#ifndef MAGNETO_PREPROCESS_FEATURES_H_
#define MAGNETO_PREPROCESS_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "sensors/sensor_types.h"

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
/// linear in stream length. Split by sweep: a row costs O(channels) in the
/// first, and the second costs O(window) plus the radix sort's prefix sums
/// over 3 signals x 4 bytes x 256 bins, whatever the window length.
///
/// The statistics come from two sweeps over the rows, with the channels
/// side by side. The first is fed one row at a time (`Scratch::AddRow`), so a
/// stream can run it as each denoised row becomes final: per-channel sums,
/// min/max of the 9 motion axes, the three magnitude signals with their
/// sums, energies and mean-|diff| sums, and the byte histograms of the
/// magnitudes' radix sort. The second needs the means and so runs once the
/// window is complete (`Scratch::Finish`): squared deviations of the 16
/// channels some std or correlation reads, zero crossings of the 9 motion
/// axes, the accelerometer cross products, the magnitude moments and
/// autocorrelation, and the radix sort's prefix and scatter passes for the
/// IQR. Every accumulator adds the same terms in the same order as the
/// one-statistic-at-a-time definitions in `common/math_utils.h`, so the
/// features are bit-identical to them however the rows arrive.
class FeatureExtractor {
 public:
  /// The state of one extraction: the first sweep's accumulators and the
  /// second sweep's buffers. Grown to the window length on first use, then
  /// reused: a warmed scratch makes extraction allocation-free. One per
  /// concurrent caller.
  class Scratch {
   public:
    /// Starts a window of `n` >= 2 rows.
    void Begin(size_t n);
    /// Runs the first sweep over the next row (22 channels).
    void AddRow(const float* x);
    /// Once all `n` rows are added: runs the second sweep over `rows` (those
    /// rows, back to back) and writes the 80 features to
    /// `out[0, kNumFeatures)`.
    void Finish(const float* rows, float* out);

   private:
    /// Writes the three magnitude signals to `sorted_`, each in ascending
    /// order exactly as `std::sort` orders it.
    void SortMagnitudes();
    /// The eight statistics of magnitude signal `g`, once it is sorted.
    void MagnitudeStats(size_t g, float* out);

    static constexpr size_t kMotionAxes = 9;

    size_t n_ = 0, rows_ = 0;
    double sum_[sensors::kNumChannels] = {};
    float lo_[kMotionAxes] = {}, hi_[kMotionAxes] = {};
    std::vector<float> magnitude_;  ///< |acc|, |gyro|, |lin_acc| back to back
    double mag_sum_[3] = {}, mag_energy_[3] = {}, mag_abs_diff_[3] = {};
    bool mag_nan_[3] = {};
    uint32_t count_[3][4][256] = {};  ///< byte histograms of each magnitude
    std::vector<float> sorted_;   ///< the magnitude signals, each sorted
    std::vector<uint32_t> keys_;  ///< the radix sort's two key buffers
  };

  FeatureExtractor() = default;

  /// Computes the 80 features on `window` (rows = time, 22 columns) into
  /// `out[0, kNumFeatures)` by feeding its rows through `scratch`. Fails
  /// with kInvalidArgument if the window has the wrong channel count or
  /// fewer than 2 samples.
  Status Extract(const Matrix& window, Scratch* scratch, float* out) const;

  /// Returns the 80 features; a wrapper over the overload above.
  Result<std::vector<float>> Extract(const Matrix& window) const;

  /// Stable names for each of the 80 dimensions, for docs and debugging.
  static const std::vector<std::string>& FeatureNames();
};

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_FEATURES_H_
