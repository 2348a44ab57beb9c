#ifndef MAGNETO_NN_LOSS_H_
#define MAGNETO_NN_LOSS_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace magneto::nn {

/// Scalar loss plus gradient w.r.t. a single input batch.
struct LossResult {
  double loss = 0.0;
  Matrix grad;  ///< same shape as the input batch
};

/// Scalar loss plus gradients w.r.t. the two branches of a Siamese pair.
struct PairLossResult {
  double loss = 0.0;
  Matrix grad_a;
  Matrix grad_b;
};

/// Margin-based pairwise contrastive loss (Hadsell et al.) over a batch of
/// Siamese pairs — the loss MAGNETO trains its embedding with:
///
///   d_i = || a_i - b_i ||_2
///   L_i = same_i       : 0.5 * d_i^2
///         different_i  : 0.5 * max(0, margin - d_i)^2
///
/// Pulls same-activity windows together, pushes different activities at least
/// `margin` apart, yielding the class-separable embedding space the NCM
/// classifier needs. Loss is the batch mean.
PairLossResult ContrastiveLoss(const Matrix& a, const Matrix& b,
                               const std::vector<uint8_t>& same,
                               double margin);

/// Embedding distillation, MSE flavour: mean_i ||student_i - teacher_i||^2.
/// The teacher batch is a constant (no gradient).
LossResult DistillationMse(const Matrix& student, const Matrix& teacher);

/// Embedding distillation, cosine flavour: mean_i (1 - cos(student_i,
/// teacher_i)). Scale-invariant — constrains embedding *directions* only.
LossResult DistillationCosine(const Matrix& student, const Matrix& teacher);

}  // namespace magneto::nn

#endif  // MAGNETO_NN_LOSS_H_
