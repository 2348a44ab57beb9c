#ifndef MAGNETO_NN_QUANTIZED_LINEAR_H_
#define MAGNETO_NN_QUANTIZED_LINEAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/layer.h"
#include "nn/linear.h"

namespace magneto::nn {

/// Serialisation tag extension for the quantized layer.
inline constexpr uint8_t kQuantizedLinearTag = 6;

/// Int8 symmetric per-output-channel quantization of a matrix: for column j,
/// q[i][j] = round(w[i][j] / scale[j]) with scale[j] = max_i |w[i][j]| / 127.
struct QuantizedMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;   ///< row-major, rows x cols
  std::vector<float> scales;  ///< per column

  /// InvalidArgument if `w` holds any non-finite value: a single NaN or inf
  /// would otherwise poison the column scale and silently zero the channel.
  static Result<QuantizedMatrix> Quantize(const Matrix& w);
  Matrix Dequantize() const;
  size_t PayloadBytes() const { return data.size() + scales.size() * 4; }
};

/// Inference-only int8 fully-connected layer (§2.1: "quantizing weights to
/// reduce resource costs").
///
/// Weights are stored in int8 with per-output-channel scales; the bias stays
/// fp32. The layer serialises at ~1/4 the size of `Linear`, which is what the
/// quantized bundle variant in bench_compression measures. `Backward` is
/// deliberately unsupported — a quantized model is a deployment artifact, not
/// a training target; on-device retraining keeps the fp32 backbone.
class QuantizedLinear : public Layer {
 public:
  /// Quantizes an existing fp32 layer. InvalidArgument if the source holds
  /// non-finite weights or biases.
  static Result<std::unique_ptr<QuantizedLinear>> FromLinear(
      const Linear& source);

  /// Dynamic-activation int8 GEMM: the input rows are quantized to int8 on
  /// the fly, multiplied through `QGemmInt8`, and rescaled per output
  /// channel. Integer accumulation is exact, so the int8 output is
  /// bit-identical across thread counts.
  void Forward(const Matrix& input, bool training, LayerState* state,
               Matrix* output) const override;

  /// Always aborts: quantized layers are inference-only.
  void Backward(const Matrix& grad_output, const Matrix& input,
                const Matrix& output, LayerState* state,
                Matrix* grad_input) override;

  LayerType type() const override {
    return static_cast<LayerType>(kQuantizedLinearTag);
  }
  std::string name() const override;
  size_t output_dim(size_t) const override { return out_dim_; }
  size_t input_dim() const override { return in_dim_; }

  /// Maximum absolute weight error introduced by quantization.
  float MaxWeightError(const Linear& source) const;

  std::unique_ptr<Layer> Clone() const override;
  void Serialize(BinaryWriter* writer) const override;
  static Result<std::unique_ptr<QuantizedLinear>> Deserialize(
      BinaryReader* reader);

 private:
  QuantizedLinear() = default;

  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
  QuantizedMatrix weight_;
  std::vector<float> bias_;
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_QUANTIZED_LINEAR_H_
