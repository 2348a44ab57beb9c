#ifndef MAGNETO_NN_LINEAR_H_
#define MAGNETO_NN_LINEAR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "nn/layer.h"

namespace magneto::nn {

/// Fully-connected layer: y = x W + b, with W of shape (in_dim x out_dim).
///
/// W and its gradient are stored in Layout::kPanels (common/matrix.h), the
/// order the batch-1 GEMM kernel streams them in, and there is no second,
/// row-major copy. Params() and Grads() hand out that storage: optimisers
/// and regularisers treat it elementwise, which is layout-blind. Everything
/// that needs W by (row, column) goes through WeightRowMajor() and
/// SetWeightRowMajor(); the wire format stays row-major.
class Linear : public Layer {
 public:
  /// Weights start at zero; use `Linear(in, out, rng)` for He-uniform init.
  Linear(size_t in_dim, size_t out_dim);

  /// He-uniform initialised weights, zero bias.
  Linear(size_t in_dim, size_t out_dim, Rng* rng);

  void Forward(const Matrix& input, bool training, LayerState* state,
               Matrix* output) const override;
  /// Forward followed, with `relu`, by Relu::Forward, in one GEMM call and
  /// with the same bits: below the packed cut-over the batch-1 kernel adds
  /// the bias and clamps as it stores each output block.
  void ForwardFused(const Matrix& input, bool relu, Matrix* output) const;
  void Backward(const Matrix& grad_output, const Matrix& input,
                const Matrix& output, LayerState* state,
                Matrix* grad_input) override;

  std::vector<Matrix*> Params() override { return {&weight_, &bias_}; }
  /// Sizes the gradient buffers (zeros) on first use, so a layer that
  /// only serves inference never holds a weight-sized gradient.
  std::vector<Matrix*> Grads() override;
  void ZeroGrad() override;

  LayerType type() const override { return LayerType::kLinear; }
  std::string name() const override;
  size_t output_dim(size_t) const override { return out_dim_; }
  size_t input_dim() const override { return in_dim_; }
  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  /// A row-major copy of W (in_dim x out_dim).
  Matrix WeightRowMajor() const;
  /// Replaces W with the row-major `weight` (in_dim x out_dim).
  void SetWeightRowMajor(const Matrix& weight);
  Matrix& bias() { return bias_; }
  const Matrix& bias() const { return bias_; }

  std::unique_ptr<Layer> Clone() const override;
  void Serialize(BinaryWriter* writer) const override;
  static Result<std::unique_ptr<Linear>> Deserialize(BinaryReader* reader);

 private:
  size_t in_dim_;
  size_t out_dim_;
  Matrix weight_;       ///< in_dim x out_dim, Layout::kPanels
  Matrix bias_;         ///< 1 x out_dim
  Matrix grad_weight_;  ///< empty until Grads() or Backward(); kPanels
  Matrix grad_bias_;

  /// Adopts `weight` (in_dim x out_dim, already in Layout::kPanels) and
  /// `bias` (1 x out_dim) without first zero-filling a weight-sized buffer
  /// (Clone, Deserialize).
  Linear(Matrix weight, Matrix bias);

  void EnsureGrads();
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_LINEAR_H_
