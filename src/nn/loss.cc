#include "nn/loss.h"

#include <cmath>

#include <vector>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/parallel.h"

namespace magneto::nn {

PairLossResult ContrastiveLoss(const Matrix& a, const Matrix& b,
                               const std::vector<uint8_t>& same,
                               double margin) {
  MAGNETO_CHECK(a.SameShape(b));
  MAGNETO_CHECK(same.size() == a.rows());
  MAGNETO_CHECK(a.rows() > 0);
  const size_t batch = a.rows();
  const size_t dim = a.cols();

  PairLossResult result;
  result.grad_a.Reset(batch, dim);
  result.grad_b.Reset(batch, dim);
  const double inv_batch = 1.0 / static_cast<double>(batch);

  // Pairs are independent: gradients go to disjoint rows and each pair's
  // loss lands in its own slot, summed in index order below so the total is
  // bit-identical at any thread count.
  std::vector<double> pair_loss(batch, 0.0);
  ParallelFor(0, batch, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float* ai = a.RowPtr(i);
      const float* bi = b.RowPtr(i);
      const double d2 = SquaredL2(ai, bi, dim);
      const double d = std::sqrt(d2);
      float* ga = result.grad_a.RowPtr(i);
      float* gb = result.grad_b.RowPtr(i);
      if (same[i]) {
        pair_loss[i] = 0.5 * d2;
        // dL/da = (a - b), scaled by 1/batch.
        for (size_t j = 0; j < dim; ++j) {
          const float diff = static_cast<float>(inv_batch) * (ai[j] - bi[j]);
          ga[j] = diff;
          gb[j] = -diff;
        }
      } else if (d < margin) {
        const double gap = margin - d;
        pair_loss[i] = 0.5 * gap * gap;
        // dL/da = -(margin - d) * (a - b) / d. Guard d ~ 0: the hinge term is
        // then flat in direction, use zero gradient (measure-zero event).
        if (d > 1e-12) {
          const double coef = -gap / d * inv_batch;
          for (size_t j = 0; j < dim; ++j) {
            const float g = static_cast<float>(coef * (ai[j] - bi[j]));
            ga[j] = g;
            gb[j] = -g;
          }
        }
      }
    }
  });
  double loss = 0.0;
  for (size_t i = 0; i < batch; ++i) loss += pair_loss[i];
  result.loss = loss * inv_batch;
  return result;
}

LossResult DistillationMse(const Matrix& student, const Matrix& teacher) {
  MAGNETO_CHECK(student.SameShape(teacher));
  MAGNETO_CHECK(student.rows() > 0);
  const size_t batch = student.rows();
  LossResult result;
  result.grad = student;
  result.grad.SubInPlace(teacher);
  result.loss = static_cast<double>(result.grad.SumOfSquares()) /
                static_cast<double>(batch);
  result.grad.Scale(2.0f / static_cast<float>(batch));
  return result;
}

LossResult DistillationCosine(const Matrix& student, const Matrix& teacher) {
  MAGNETO_CHECK(student.SameShape(teacher));
  MAGNETO_CHECK(student.rows() > 0);
  const size_t batch = student.rows();
  const size_t dim = student.cols();
  LossResult result;
  result.grad.Reset(batch, dim);
  double loss = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t i = 0; i < batch; ++i) {
    const float* s = student.RowPtr(i);
    const float* t = teacher.RowPtr(i);
    double ss = 0.0, tt = 0.0, st = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      ss += static_cast<double>(s[j]) * s[j];
      tt += static_cast<double>(t[j]) * t[j];
      st += static_cast<double>(s[j]) * t[j];
    }
    const double ns = std::max(std::sqrt(ss), 1e-12);
    const double nt = std::max(std::sqrt(tt), 1e-12);
    const double cosine = st / (ns * nt);
    loss += 1.0 - cosine;
    // d(1 - cos)/ds_j = -(t_j / (ns*nt) - cos * s_j / ns^2)
    float* g = result.grad.RowPtr(i);
    for (size_t j = 0; j < dim; ++j) {
      g[j] = static_cast<float>(
          inv_batch * -(t[j] / (ns * nt) - cosine * s[j] / (ns * ns)));
    }
  }
  result.loss = loss * inv_batch;
  return result;
}

}  // namespace magneto::nn
