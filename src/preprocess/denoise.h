#ifndef MAGNETO_PREPROCESS_DENOISE_H_
#define MAGNETO_PREPROCESS_DENOISE_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "common/serial.h"

namespace magneto::preprocess {

/// Denoising filter applied independently to each sensor channel (column).
enum class DenoiseMethod : uint8_t {
  kNone = 0,
  kMovingAverage = 1,  ///< centred boxcar of `window` samples
  kMedian = 2,         ///< centred running median of `window` samples
  kLowPass = 3,        ///< single-pole IIR, y[t] = a*x[t] + (1-a)*y[t-1]
};

struct DenoiseConfig {
  DenoiseMethod method = DenoiseMethod::kMovingAverage;
  size_t window = 5;    ///< for kMovingAverage / kMedian; must be odd and >= 1
  double alpha = 0.3;   ///< for kLowPass; in (0, 1]

  /// Fails with kInvalidArgument on an even or zero moving-average/median
  /// window or a low-pass alpha outside (0, 1] (NaN included); kNone ignores
  /// both fields.
  Status Validate() const;

  void Serialize(BinaryWriter* writer) const;
  /// Fails with kCorruption on a method or field `Validate` refuses.
  static Result<DenoiseConfig> Deserialize(BinaryReader* reader);
};

/// Row-streaming form of the three filters: raw rows go in one at a time and
/// each denoised row comes out as soon as no later row can change it — at
/// once for kNone and kLowPass, `window / 2` rows later for the centred
/// kMovingAverage and kMedian, whose last `window / 2` rows come out of
/// `Finish`. Every channel's running state sits side by side in one row
/// sweep, and each channel still sees exactly the operation sequence of a
/// filter run down its own column: the moving average adds row `i + half`
/// and then subtracts the rows that left the window before it divides for
/// row `i` (one `double` divide per sample), the shrinking edge windows
/// included. Once warmed by a signal of the same width, no call allocates.
class RowDenoiser {
 public:
  /// Starts a signal of `rows` rows of `cols` channels. Fails with
  /// `config.Validate()`'s kInvalidArgument.
  Status Begin(const DenoiseConfig& config, size_t rows, size_t cols);

  /// Takes raw row k, where k rows were pushed before it. `raw` holds the
  /// signal's raw rows [0, k] back to back, `cols` floats each; no row more
  /// than `window` rows older than row k is read. Writes every row that
  /// became final to `out` (the denoised rows, same layout) and returns how
  /// many rows are final.
  size_t Push(const float* raw, float* out);

  /// After the last raw row (`raw` holds all of them): writes the rows still
  /// pending to `out` and returns `rows`.
  size_t Finish(const float* raw, float* out);

 private:
  /// `Push` for `kCols` channels; 0 reads the width from `cols_`. The
  /// stream's 22 channels get their own instantiation, whose row loops the
  /// compiler unrolls.
  template <size_t kCols>
  size_t PushRow(const float* raw, float* out);
  /// Writes centred output row `i`, whose window ends at the last row
  /// pushed.
  template <size_t kCols>
  void EmitMovingAverage(const float* raw, size_t i, float* out);
  void EmitMedian(const float* raw, size_t i, float* out);

  DenoiseConfig config_;
  size_t rows_ = 0, cols_ = 0, half_ = 0;
  size_t pushed_ = 0;   ///< raw rows taken
  size_t emitted_ = 0;  ///< denoised rows written
  size_t lo_ = 0;       ///< first raw row inside the moving-average sum
  std::vector<double> state_;  ///< sliding sums or low-pass outputs
  std::vector<float> median_;  ///< one channel's window, for nth_element
};

/// Writes the denoised `samples` (rows = time, cols = channels) to `out`,
/// resizing it and reusing its storage; `out` must not alias `samples`.
/// Drives a `RowDenoiser` over the rows, so the whole-signal and the
/// streamed output are the same bits. Every method is linear (or near-linear)
/// in the number of samples, keeping the paper's "preprocessing requires
/// linear time" property.
Status Denoise(const Matrix& samples, const DenoiseConfig& config,
               Matrix* out);

/// Returns a denoised copy of `samples`; a wrapper over the overload above.
Result<Matrix> Denoise(const Matrix& samples, const DenoiseConfig& config);

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_DENOISE_H_
