#include "nn/activation.h"

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

}  // namespace magneto::nn
