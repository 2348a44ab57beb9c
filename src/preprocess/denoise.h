#ifndef MAGNETO_PREPROCESS_DENOISE_H_
#define MAGNETO_PREPROCESS_DENOISE_H_

#include <cstdint>

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

  void Serialize(BinaryWriter* writer) const;
  static Result<DenoiseConfig> Deserialize(BinaryReader* reader);
};

/// Writes the denoised `samples` (rows = time, cols = channels) to `out`,
/// resizing it and reusing its storage: once `out` has held a window of this
/// shape, every method but kMedian runs without a heap allocation. `out`
/// must not alias `samples`. All methods are linear (or near-linear) in the
/// number of samples, keeping the paper's "preprocessing requires linear
/// time" property.
///
/// The moving average and the low-pass filter sweep the rows once with every
/// channel's running state side by side. Each channel still sees exactly the
/// operation sequence of a filter run down its own column (the same adds and
/// subtracts in the same order, one `double` divide per sample), so the
/// output bits do not depend on the sweep order.
Status Denoise(const Matrix& samples, const DenoiseConfig& config,
               Matrix* out);

/// Returns a denoised copy of `samples`; a wrapper over the overload above.
Result<Matrix> Denoise(const Matrix& samples, const DenoiseConfig& config);

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_DENOISE_H_
