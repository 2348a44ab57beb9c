#ifndef MAGNETO_NN_GRADIENT_CHECK_H_
#define MAGNETO_NN_GRADIENT_CHECK_H_

#include <functional>

#include "common/matrix.h"
#include "nn/sequential.h"

namespace magneto::nn {

/// Result of a finite-difference gradient check.
struct GradientCheckResult {
  double max_abs_error = 0.0;   ///< max |analytic - numeric|
  double max_rel_error = 0.0;   ///< max error / (|analytic| + |numeric| + eps)
  size_t checked = 0;           ///< number of scalars compared
  bool Passed(double rel_tol) const { return max_rel_error <= rel_tol; }
};

/// Verifies a network's parameter gradients against central differences.
///
/// `loss_fn` must run `net.Forward(..., ws, /*record=*/true)` exactly once
/// through a workspace it owns, call `net.Backward(..., ws)` (accumulating
/// gradients), and return the scalar loss.
/// The checker zeroes gradients itself before invoking `loss_fn`. Float32
/// parameters limit achievable agreement; rel_tol around 1e-2 with
/// epsilon ~1e-3 is the practical regime, and the check perturbs at most
/// `max_scalars_per_param` entries of each parameter to stay fast.
GradientCheckResult CheckParameterGradients(
    Sequential* net, const std::function<double()>& loss_fn,
    double epsilon = 1e-3, size_t max_scalars_per_param = 16);

/// Verifies an input-gradient function against central differences.
/// `loss_and_grad` returns the loss and fills `grad` (same shape as `input`)
/// for the supplied input.
GradientCheckResult CheckInputGradient(
    const Matrix& input,
    const std::function<double(const Matrix& input, Matrix* grad)>&
        loss_and_grad,
    double epsilon = 1e-3, size_t max_scalars = 64);

}  // namespace magneto::nn

#endif  // MAGNETO_NN_GRADIENT_CHECK_H_
