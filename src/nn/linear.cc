#include "nn/linear.h"

#include <cmath>
#include <utility>

namespace magneto::nn {

Linear::Linear(size_t in_dim, size_t out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(in_dim, out_dim),
      bias_(1, out_dim) {
  MAGNETO_CHECK(in_dim > 0 && out_dim > 0);
}

Linear::Linear(Matrix weight, Matrix bias)
    : in_dim_(weight.rows()),
      out_dim_(weight.cols()),
      weight_(std::move(weight)),
      bias_(std::move(bias)) {
  MAGNETO_CHECK(in_dim_ > 0 && out_dim_ > 0);
  MAGNETO_CHECK(bias_.rows() == 1 && bias_.cols() == out_dim_);
}

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng)
    : Linear(in_dim, out_dim) {
  // He-uniform: U(-limit, limit), limit = sqrt(6 / fan_in). Suits the ReLU
  // MLP backbone.
  const double limit = std::sqrt(6.0 / static_cast<double>(in_dim));
  for (size_t i = 0; i < weight_.size(); ++i) {
    weight_.data()[i] = static_cast<float>(rng->Uniform(-limit, limit));
  }
}

void Linear::Forward(const Matrix& input, bool /*training*/,
                     LayerState* /*state*/, Matrix* output) const {
  MAGNETO_CHECK(input.cols() == in_dim_);
  MatMulInto(input, weight_, output);
  for (size_t r = 0; r < output->rows(); ++r) {
    float* row = output->RowPtr(r);
    const float* b = bias_.RowPtr(0);
    for (size_t c = 0; c < out_dim_; ++c) row[c] += b[c];
  }
}

void Linear::Backward(const Matrix& grad_output, const Matrix& input,
                      const Matrix& /*output*/, LayerState* state,
                      Matrix* grad_input) {
  MAGNETO_CHECK(grad_output.cols() == out_dim_);
  MAGNETO_CHECK(grad_output.rows() == input.rows());
  MAGNETO_CHECK(state != nullptr);
  EnsureGrads();
  // Each weight-gradient element's batch sum is finished inside the GEMM and
  // added to grad_weight_ once: the bits of a GEMM into a temporary plus
  // AddInPlace, without the temporary or the second pass. The bias column
  // sums go through the workspace row the same way.
  MatMulTransAAccumulate(input, grad_output, &grad_weight_);
  grad_output.ColSumInto(&state->scratch_row);
  grad_bias_.AddInPlace(state->scratch_row);
  MatMulTransBInto(grad_output, weight_, grad_input);
}

std::vector<Matrix*> Linear::Grads() {
  EnsureGrads();
  return {&grad_weight_, &grad_bias_};
}

void Linear::EnsureGrads() {
  if (!grad_weight_.empty()) return;
  grad_weight_ = Matrix(in_dim_, out_dim_);
  grad_bias_ = Matrix(1, out_dim_);
}

void Linear::ZeroGrad() {
  // Empty buffers are zero gradients already.
  grad_weight_.Fill(0.0f);
  grad_bias_.Fill(0.0f);
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_dim_) + "->" + std::to_string(out_dim_) +
         ")";
}

std::unique_ptr<Layer> Linear::Clone() const {
  return std::unique_ptr<Layer>(new Linear(weight_, bias_));
}

void Linear::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(LayerType::kLinear));
  writer->WriteU64(in_dim_);
  writer->WriteU64(out_dim_);
  writer->WriteF32Vector(weight_.storage());
  writer->WriteF32Vector(bias_.storage());
}

Result<std::unique_ptr<Linear>> Linear::Deserialize(BinaryReader* reader) {
  // Caller consumed the type tag already.
  MAGNETO_ASSIGN_OR_RETURN(uint64_t in_dim, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t out_dim, reader->ReadU64());
  // Dimension sanity cap: rejects hostile headers whose product would wrap
  // or demand an absurd allocation before the payload check can catch it.
  constexpr uint64_t kMaxDim = 1 << 20;
  if (in_dim == 0 || out_dim == 0 || in_dim > kMaxDim || out_dim > kMaxDim) {
    return Status::Corruption("linear layer dimensions out of range");
  }
  MAGNETO_ASSIGN_OR_RETURN(std::vector<float> w, reader->ReadF32Vector());
  MAGNETO_ASSIGN_OR_RETURN(std::vector<float> b, reader->ReadF32Vector());
  if (w.size() != in_dim * out_dim || b.size() != out_dim) {
    return Status::Corruption("linear layer payload size mismatch");
  }
  return std::unique_ptr<Linear>(new Linear(
      Matrix(in_dim, out_dim, std::move(w)), Matrix(1, out_dim, std::move(b))));
}

}  // namespace magneto::nn
