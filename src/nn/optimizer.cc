#include "nn/optimizer.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"

namespace magneto::nn {

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
           Options options)
    : params_(std::move(params)), grads_(std::move(grads)), options_(options) {
  MAGNETO_CHECK(params_.size() == grads_.size());
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    MAGNETO_CHECK(params_[i]->SameShape(*grads_[i]));
    m_.emplace_back(params_[i]->rows(), params_[i]->cols());
    v_.emplace_back(params_[i]->rows(), params_[i]->cols());
  }
}

void Adam::ZeroGrad() {
  for (Matrix* g : grads_) g->Fill(0.0f);
}

void Adam::Step() {
  ++t_;
  const double lr = options_.learning_rate;
  const double b1 = options_.beta1;
  const double b2 = options_.beta2;
  const double eps = options_.epsilon;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const float wd = static_cast<float>(options_.weight_decay);

  for (size_t i = 0; i < params_.size(); ++i) {
    Matrix& p = *params_[i];
    // Four distinct buffers: __restrict lets the loop below vectorise (with
    // -fno-math-errno, std::sqrt is a plain sqrt instruction). Each lane
    // runs the scalar expression, so the bits match a one-at-a-time loop.
    float* __restrict pd = p.data();
    const float* __restrict gd = grads_[i]->data();
    float* __restrict md = m_[i].data();
    float* __restrict vd = v_[i].data();
    ParallelFor(0, p.size(), size_t{1} << 16, [=](size_t lo, size_t hi) {
      for (size_t j = lo; j < hi; ++j) {
        md[j] = static_cast<float>(b1 * md[j] + (1.0 - b1) * gd[j]);
        vd[j] = static_cast<float>(b2 * vd[j] +
                                   (1.0 - b2) * static_cast<double>(gd[j]) *
                                       gd[j]);
        const double mhat = md[j] / bc1;
        const double vhat = vd[j] / bc2;
        pd[j] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
      }
    });
    if (wd != 0.0f) p.Scale(1.0f - static_cast<float>(lr) * wd);
  }
}

}  // namespace magneto::nn
