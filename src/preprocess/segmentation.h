#ifndef MAGNETO_PREPROCESS_SEGMENTATION_H_
#define MAGNETO_PREPROCESS_SEGMENTATION_H_

#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "common/serial.h"
#include "sensors/recording.h"

namespace magneto::preprocess {

/// Fixed-length windowing of a continuous recording.
///
/// The paper segments the stream into one-second windows of ~120 samples
/// (§4.1.2); `stride` < `window_samples` gives overlapping windows, which the
/// edge learner uses to squeeze more training windows out of a short 20-30 s
/// capture.
struct SegmentationConfig {
  size_t window_samples = 120;
  size_t stride = 120;  ///< samples between window starts; == window -> no overlap
  /// Drop a trailing partial window (always true in this implementation; a
  /// partial window would distort the statistical features).

  /// Upper bound a deserialised `window_samples` or `stride` may take.
  static constexpr size_t kMaxSamples = size_t{1} << 20;

  void Serialize(BinaryWriter* writer) const;
  /// Fails with kCorruption unless 2 <= window_samples <= kMaxSamples and
  /// 1 <= stride <= kMaxSamples: a bundle with stride 0 would re-classify on
  /// every frame while the stream buffer grew without bound, and an absurd
  /// window would size the runtime's buffers from hostile bytes.
  static Result<SegmentationConfig> Deserialize(BinaryReader* reader);
};

/// Splits `samples` (rows = time) into windows of `window_samples` rows every
/// `stride` rows. Trailing samples that do not fill a window are dropped.
Result<std::vector<Matrix>> Segment(const Matrix& samples,
                                    const SegmentationConfig& config);

/// Convenience overload for recordings.
Result<std::vector<Matrix>> Segment(const sensors::Recording& recording,
                                    const SegmentationConfig& config);

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_SEGMENTATION_H_
