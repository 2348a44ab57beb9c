#ifndef MAGNETO_NN_OPTIMIZER_H_
#define MAGNETO_NN_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "common/matrix.h"

namespace magneto::nn {

/// First-order optimiser over a fixed parameter/gradient list.
///
/// Bound once to the matrices of a `Sequential` (the lists must stay alive
/// and keep their shapes); `Step()` consumes the accumulated gradients.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the current gradient buffers.
  virtual void Step() = 0;

  /// Clears the gradient buffers.
  void ZeroGrad();

  size_t num_params() const { return params_.size(); }

 protected:
  Optimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads);

  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
};

/// SGD with optional momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  struct Options {
    double learning_rate = 0.01;
    double momentum = 0.0;
    double weight_decay = 0.0;
  };

  Sgd(std::vector<Matrix*> params, std::vector<Matrix*> grads,
      Options options);

  void Step() override;

  void set_learning_rate(double lr) { options_.learning_rate = lr; }
  double learning_rate() const { return options_.learning_rate; }

 private:
  Options options_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
class Adam : public Optimizer {
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

  void Step() override;

  void set_learning_rate(double lr) { options_.learning_rate = lr; }
  double learning_rate() const { return options_.learning_rate; }

  /// First and second moment estimates of parameter `i`.
  const Matrix& first_moment(size_t i) const { return m_[i]; }
  const Matrix& second_moment(size_t i) const { return v_[i]; }

 private:
  Options options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t t_ = 0;
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_OPTIMIZER_H_
