#include "nn/layer_norm.h"

#include <cmath>

namespace magneto::nn {

LayerNorm::LayerNorm(size_t dim, double epsilon)
    : dim_(dim),
      epsilon_(epsilon),
      gamma_(1, dim),
      beta_(1, dim),
      grad_gamma_(1, dim),
      grad_beta_(1, dim) {
  MAGNETO_CHECK(dim > 0);
  gamma_.Fill(1.0f);
}

void LayerNorm::Forward(const Matrix& input, bool /*training*/,
                        LayerState* state, Matrix* output) const {
  MAGNETO_CHECK(input.cols() == dim_);
  const size_t batch = input.rows();
  if (state != nullptr) {
    state->cached.ResetForOverwrite(batch, dim_);  // x_hat
    state->stats.resize(batch);                    // 1/std per row
  }
  output->ResetForOverwrite(batch, dim_);
  for (size_t r = 0; r < batch; ++r) {
    const float* x = input.RowPtr(r);
    double mean = 0.0;
    for (size_t j = 0; j < dim_; ++j) mean += x[j];
    mean /= static_cast<double>(dim_);
    double var = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      const double d = x[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(dim_);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
    if (state != nullptr) state->stats[r] = inv_std;
    float* xhat = state != nullptr ? state->cached.RowPtr(r) : nullptr;
    float* y = output->RowPtr(r);
    const float* g = gamma_.RowPtr(0);
    const float* b = beta_.RowPtr(0);
    for (size_t j = 0; j < dim_; ++j) {
      const float xh = (x[j] - static_cast<float>(mean)) * inv_std;
      if (xhat != nullptr) xhat[j] = xh;
      y[j] = g[j] * xh + b[j];
    }
  }
}

void LayerNorm::Backward(const Matrix& grad_output, const Matrix& /*input*/,
                         const Matrix& /*output*/, LayerState* state,
                         Matrix* grad_input) {
  MAGNETO_CHECK(state != nullptr);
  MAGNETO_CHECK(grad_output.rows() == state->cached.rows());
  MAGNETO_CHECK(grad_output.cols() == dim_);
  const size_t batch = grad_output.rows();
  if (grad_input != nullptr) grad_input->ResetForOverwrite(batch, dim_);
  const float* g = gamma_.RowPtr(0);
  const double n = static_cast<double>(dim_);
  for (size_t r = 0; r < batch; ++r) {
    const float* dy = grad_output.RowPtr(r);
    const float* xhat = state->cached.RowPtr(r);
    // Parameter gradients.
    float* gg = grad_gamma_.RowPtr(0);
    float* gb = grad_beta_.RowPtr(0);
    for (size_t j = 0; j < dim_; ++j) {
      gg[j] += dy[j] * xhat[j];
      gb[j] += dy[j];
    }
    if (grad_input == nullptr) continue;
    // Input gradient:
    // dx = inv_std/n * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat)),
    // with dxhat = dy * gamma.
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      const double dxhat = static_cast<double>(dy[j]) * g[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat[j];
    }
    float* dx = grad_input->RowPtr(r);
    const double inv_std = state->stats[r];
    for (size_t j = 0; j < dim_; ++j) {
      const double dxhat = static_cast<double>(dy[j]) * g[j];
      dx[j] = static_cast<float>(
          inv_std / n * (n * dxhat - sum_dxhat - xhat[j] * sum_dxhat_xhat));
    }
  }
}

void LayerNorm::ZeroGrad() {
  grad_gamma_.Fill(0.0f);
  grad_beta_.Fill(0.0f);
}

std::string LayerNorm::name() const {
  return "LayerNorm(" + std::to_string(dim_) + ")";
}

std::unique_ptr<Layer> LayerNorm::Clone() const {
  auto clone = std::make_unique<LayerNorm>(dim_, epsilon_);
  clone->gamma_ = gamma_;
  clone->beta_ = beta_;
  return clone;
}

void LayerNorm::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(kLayerNormTag);
  writer->WriteU64(dim_);
  writer->WriteF64(epsilon_);
  writer->WriteF32Vector(gamma_.storage());
  writer->WriteF32Vector(beta_.storage());
}

Result<std::unique_ptr<LayerNorm>> LayerNorm::Deserialize(
    BinaryReader* reader) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t dim, reader->ReadU64());
  if (dim == 0 || dim > (1 << 20)) {
    return Status::Corruption("layer norm dim out of range");
  }
  MAGNETO_ASSIGN_OR_RETURN(double epsilon, reader->ReadF64());
  MAGNETO_ASSIGN_OR_RETURN(std::vector<float> gamma, reader->ReadF32Vector());
  MAGNETO_ASSIGN_OR_RETURN(std::vector<float> beta, reader->ReadF32Vector());
  if (gamma.size() != dim || beta.size() != dim) {
    return Status::Corruption("layer norm payload size mismatch");
  }
  auto layer = std::make_unique<LayerNorm>(dim, epsilon);
  layer->gamma_ = Matrix(1, dim, std::move(gamma));
  layer->beta_ = Matrix(1, dim, std::move(beta));
  return layer;
}

}  // namespace magneto::nn
