#ifndef MAGNETO_NN_OPTIMIZER_H_
#define MAGNETO_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace magneto::nn {

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
///
/// Bound once to the matrices of a `Sequential` (the lists must stay alive
/// and keep their shapes); `Step()` consumes the accumulated gradients.
class Adam {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
       Options options);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the current gradient buffers.
  void Step();

  /// Clears the gradient buffers.
  void ZeroGrad();

  /// First and second moment estimates of parameter `i`.
  const Matrix& first_moment(size_t i) const { return m_[i]; }
  const Matrix& second_moment(size_t i) const { return v_[i]; }

 private:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  Options options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t t_ = 0;
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_OPTIMIZER_H_
