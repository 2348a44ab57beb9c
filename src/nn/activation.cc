#include "nn/activation.h"

#include <cmath>

namespace magneto::nn {

void Relu::Forward(const Matrix& input, bool /*training*/,
                   LayerState* /*state*/, Matrix* output) const {
  output->ResetForOverwrite(input.rows(), input.cols());
  const float* in = input.data();
  float* out = output->data();
  for (size_t i = 0; i < input.size(); ++i) {
    out[i] = in[i] < 0.0f ? 0.0f : in[i];
  }
}

void Relu::Backward(const Matrix& grad_output, const Matrix& input,
                    const Matrix& /*output*/, LayerState* /*state*/,
                    Matrix* grad_input) {
  MAGNETO_CHECK(grad_output.SameShape(input));
  if (grad_input == nullptr) return;
  grad_input->ResetForOverwrite(grad_output.rows(), grad_output.cols());
  const float* g = grad_output.data();
  const float* in = input.data();
  float* gi = grad_input->data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    // Loading g[i] unconditionally makes the gate a compare-and-select the
    // compiler vectorises, instead of a branch on the input sign.
    const float gv = g[i];
    gi[i] = in[i] <= 0.0f ? 0.0f : gv;
  }
}

void Relu::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(LayerType::kRelu));
}

void Tanh::Forward(const Matrix& input, bool /*training*/,
                   LayerState* /*state*/, Matrix* output) const {
  output->ResetForOverwrite(input.rows(), input.cols());
  const float* in = input.data();
  float* out = output->data();
  for (size_t i = 0; i < input.size(); ++i) out[i] = std::tanh(in[i]);
}

void Tanh::Backward(const Matrix& grad_output, const Matrix& /*input*/,
                    const Matrix& output, LayerState* /*state*/,
                    Matrix* grad_input) {
  MAGNETO_CHECK(grad_output.SameShape(output));
  if (grad_input == nullptr) return;
  grad_input->ResetForOverwrite(grad_output.rows(), grad_output.cols());
  const float* g = grad_output.data();
  const float* y = output.data();
  float* gi = grad_input->data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    gi[i] = g[i] * (1.0f - y[i] * y[i]);
  }
}

void Tanh::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(LayerType::kTanh));
}

void Sigmoid::Forward(const Matrix& input, bool /*training*/,
                      LayerState* /*state*/, Matrix* output) const {
  output->ResetForOverwrite(input.rows(), input.cols());
  const float* in = input.data();
  float* out = output->data();
  for (size_t i = 0; i < input.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
}

void Sigmoid::Backward(const Matrix& grad_output, const Matrix& /*input*/,
                       const Matrix& output, LayerState* /*state*/,
                       Matrix* grad_input) {
  MAGNETO_CHECK(grad_output.SameShape(output));
  if (grad_input == nullptr) return;
  grad_input->ResetForOverwrite(grad_output.rows(), grad_output.cols());
  const float* g = grad_output.data();
  const float* y = output.data();
  float* gi = grad_input->data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    gi[i] = g[i] * y[i] * (1.0f - y[i]);
  }
}

void Sigmoid::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(LayerType::kSigmoid));
}

}  // namespace magneto::nn
