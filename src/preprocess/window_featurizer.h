#ifndef MAGNETO_PREPROCESS_WINDOW_FEATURIZER_H_
#define MAGNETO_PREPROCESS_WINDOW_FEATURIZER_H_

#include "common/matrix.h"
#include "common/result.h"
#include "preprocess/denoise.h"
#include "preprocess/features.h"

namespace magneto::preprocess {

/// One window's denoising and 80-feature extraction, run as its raw rows
/// arrive: `Push` takes raw row k, lets the `RowDenoiser` emit every row that
/// became final (row k - window/2 for the default centred moving average)
/// and runs the features' first sweep (`FeatureExtractor::Scratch::AddRow`)
/// over it. `Finish`, once the last row is in, emits the last denoised rows
/// and runs only what needs the window means: the second sweep, the IQR's
/// radix passes. The output bits do not depend on how the rows were split
/// between `Push` calls and `Finish`; `Pipeline::ProcessWindow` drives the
/// same object over a whole window.
///
/// The raw rows stay with the caller (a stream's frame buffer, a window
/// matrix): every call gets the window's raw rows so far, back to back, and
/// the denoiser reads the last `window` of them. Warmed by one window of the
/// same length, a featurizer is allocation-free. Single-owner.
class WindowFeaturizer {
 public:
  /// Starts a window of `n` raw rows of 22 channels, denoised per `denoise`;
  /// with `statistical`, the 80 features' first sweep follows each final
  /// row (the spectral extractor reads only `denoised()`). A bad denoise
  /// config, or fewer than 2 rows for the statistical features, is
  /// reported by `Finish`; until then rows are only counted.
  void Begin(const DenoiseConfig& denoise, size_t n, bool statistical);

  /// Takes raw row `pushed()`; `raw` holds the window's raw rows
  /// [0, pushed()] back to back.
  void Push(const float* raw);

  size_t pushed() const { return pushed_; }

  /// After the n-th row (`raw` holds all of them), once per window: emits
  /// the last denoised rows and, with `statistical`, writes the 80 features
  /// to `out[0, kNumFeatures)`. Fails with Begin's kInvalidArgument.
  Status Finish(const float* raw, float* out);

  /// The denoised window, complete after a successful `Finish`.
  const Matrix& denoised() const { return denoised_; }

 private:
  Status status_ = Status::Ok();
  bool statistical_ = true;
  size_t n_ = 0;
  size_t pushed_ = 0;
  size_t swept_ = 0;  ///< denoised rows through the first feature sweep
  RowDenoiser denoiser_;
  FeatureExtractor::Scratch features_;
  Matrix denoised_;
};

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_WINDOW_FEATURIZER_H_
