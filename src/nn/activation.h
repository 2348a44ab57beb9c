#ifndef MAGNETO_NN_ACTIVATION_H_
#define MAGNETO_NN_ACTIVATION_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace magneto::nn {

/// Rectified linear unit, elementwise max(0, x). It keeps no state of its
/// own: the backward reads the forward `input`, which the caller supplies
/// (Sequential keeps it in the workspace).
class Relu : public Layer {
 public:
  void Forward(const Matrix& input, bool training, LayerState* state,
               Matrix* output) const override;
  void Backward(const Matrix& grad_output, const Matrix& input,
                const Matrix& output, LayerState* state,
                Matrix* grad_input) override;
  LayerType type() const override { return LayerType::kRelu; }
  std::string name() const override { return "ReLU"; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Relu>();
  }
  void Serialize(BinaryWriter* writer) const override;
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_ACTIVATION_H_
