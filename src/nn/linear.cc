#include "nn/linear.h"

#include <cmath>
#include <cstring>
#include <span>
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
  // MLP backbone. Drawn in row-major order, so each (row, column) gets the
  // same value whatever the storage layout.
  const double limit = std::sqrt(6.0 / static_cast<double>(in_dim));
  Matrix drawn(in_dim, out_dim);
  for (size_t i = 0; i < drawn.size(); ++i) {
    drawn.data()[i] = static_cast<float>(rng->Uniform(-limit, limit));
  }
  SetWeightRowMajor(drawn);
}

Matrix Linear::WeightRowMajor() const {
  Matrix out;
  out.ResetForOverwrite(in_dim_, out_dim_);
  PanelsToRowMajor(in_dim_, out_dim_, weight_.data(), out.data());
  return out;
}

void Linear::SetWeightRowMajor(const Matrix& weight) {
  MAGNETO_CHECK(weight.rows() == in_dim_ && weight.cols() == out_dim_);
  RowMajorToPanels(in_dim_, out_dim_, weight.data(), weight_.data());
}

void Linear::Forward(const Matrix& input, bool /*training*/,
                     LayerState* /*state*/, Matrix* output) const {
  ForwardFused(input, /*relu=*/false, output);
}

void Linear::ForwardFused(const Matrix& input, bool relu,
                          Matrix* output) const {
  MAGNETO_CHECK(input.cols() == in_dim_);
  MatMulBiasInto(input, weight_, bias_, relu, output, Layout::kPanels);
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
  MatMulTransAAccumulate(input, grad_output, &grad_weight_, Layout::kPanels);
  grad_output.ColSumInto(&state->scratch_row);
  grad_bias_.AddInPlace(state->scratch_row);
  if (grad_input != nullptr) {
    MatMulTransBInto(grad_output, weight_, grad_input, Layout::kPanels);
  }
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
  writer->WriteF32Vector(WeightRowMajor().storage());
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
  // The row-major wire bytes go straight into panel order: one
  // weight-sized buffer, which the layer adopts.
  MAGNETO_ASSIGN_OR_RETURN(std::span<const uint8_t> w,
                           reader->ReadF32VectorBytes(in_dim * out_dim));
  MAGNETO_ASSIGN_OR_RETURN(std::span<const uint8_t> b,
                           reader->ReadF32VectorBytes(out_dim));
  Matrix::Storage weight(in_dim * out_dim), bias(out_dim);
  RowMajorToPanels(in_dim, out_dim, w.data(), weight.data());
  std::memcpy(bias.data(), b.data(), b.size());
  return std::unique_ptr<Linear>(
      new Linear(Matrix::Adopt(in_dim, out_dim, std::move(weight)),
                 Matrix::Adopt(1, out_dim, std::move(bias))));
}

}  // namespace magneto::nn
