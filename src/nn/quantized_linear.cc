#include "nn/quantized_linear.h"

#include <algorithm>
#include <cmath>

#include "common/qgemm.h"

namespace magneto::nn {

Result<QuantizedMatrix> QuantizedMatrix::Quantize(const Matrix& w) {
  for (size_t i = 0; i < w.rows(); ++i) {
    const float* row = w.RowPtr(i);
    for (size_t j = 0; j < w.cols(); ++j) {
      if (!std::isfinite(row[j])) {
        return Status::InvalidArgument(
            "cannot quantize non-finite weight at (" + std::to_string(i) +
            ", " + std::to_string(j) + ")");
      }
    }
  }
  QuantizedMatrix q;
  q.rows = w.rows();
  q.cols = w.cols();
  q.data.resize(w.size());
  q.scales.assign(w.cols(), 0.0f);
  for (size_t j = 0; j < w.cols(); ++j) {
    float max_abs = 0.0f;
    for (size_t i = 0; i < w.rows(); ++i) {
      max_abs = std::max(max_abs, std::fabs(w.At(i, j)));
    }
    q.scales[j] = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  }
  for (size_t i = 0; i < w.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) {
      const float scaled = w.At(i, j) / q.scales[j];
      q.data[i * w.cols() + j] = static_cast<int8_t>(
          std::lround(std::fmin(127.0f, std::fmax(-127.0f, scaled))));
    }
  }
  return q;
}

Matrix QuantizedMatrix::Dequantize() const {
  Matrix w(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      w.At(i, j) = static_cast<float>(data[i * cols + j]) * scales[j];
    }
  }
  return w;
}

Result<std::unique_ptr<QuantizedLinear>> QuantizedLinear::FromLinear(
    const Linear& source) {
  auto layer = std::unique_ptr<QuantizedLinear>(new QuantizedLinear());
  layer->in_dim_ = source.in_dim();
  layer->out_dim_ = source.out_dim();
  MAGNETO_ASSIGN_OR_RETURN(layer->weight_,
                           QuantizedMatrix::Quantize(source.WeightRowMajor()));
  layer->bias_ = source.bias().Row(0);
  for (float b : layer->bias_) {
    if (!std::isfinite(b)) {
      return Status::InvalidArgument("cannot quantize non-finite bias");
    }
  }
  return layer;
}

void QuantizedLinear::Forward(const Matrix& input, bool /*training*/,
                              LayerState* /*state*/, Matrix* output) const {
  MAGNETO_CHECK(input.cols() == in_dim_);
  // Quantize the activations per row, then run the integer GEMM. The
  // scratch is call-local so one immutable layer can serve concurrent
  // forwards. Output is bit-identical across thread counts: integer
  // accumulation is exact and the scale fold is a fixed float sequence.
  QuantizedRows qx;
  QuantizeRowsInt8(input, &qx);
  QGemmInt8(qx, weight_.data.data(), in_dim_, out_dim_, weight_.scales.data(),
            bias_.data(), output);
}

void QuantizedLinear::Backward(const Matrix& /*grad_output*/,
                               const Matrix& /*input*/,
                               const Matrix& /*output*/, LayerState* /*state*/,
                               Matrix* /*grad_input*/) {
  MAGNETO_LOG(Fatal) << "QuantizedLinear is inference-only";
}

std::string QuantizedLinear::name() const {
  return "QuantizedLinear(" + std::to_string(in_dim_) + "->" +
         std::to_string(out_dim_) + ", int8)";
}

float QuantizedLinear::MaxWeightError(const Linear& source) const {
  Matrix dequantized = weight_.Dequantize();
  dequantized.SubInPlace(source.WeightRowMajor());
  return dequantized.AbsMax();
}

std::unique_ptr<Layer> QuantizedLinear::Clone() const {
  auto clone = std::unique_ptr<QuantizedLinear>(new QuantizedLinear());
  clone->in_dim_ = in_dim_;
  clone->out_dim_ = out_dim_;
  clone->weight_ = weight_;
  clone->bias_ = bias_;
  return clone;
}

void QuantizedLinear::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(kQuantizedLinearTag);
  writer->WriteU64(in_dim_);
  writer->WriteU64(out_dim_);
  writer->WriteI8Vector(weight_.data);
  writer->WriteF32Vector(weight_.scales);
  writer->WriteF32Vector(bias_);
}

Result<std::unique_ptr<QuantizedLinear>> QuantizedLinear::Deserialize(
    BinaryReader* reader) {
  auto layer = std::unique_ptr<QuantizedLinear>(new QuantizedLinear());
  MAGNETO_ASSIGN_OR_RETURN(layer->in_dim_, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(layer->out_dim_, reader->ReadU64());
  constexpr uint64_t kMaxDim = 1 << 20;
  if (layer->in_dim_ == 0 || layer->out_dim_ == 0 ||
      layer->in_dim_ > kMaxDim || layer->out_dim_ > kMaxDim) {
    return Status::Corruption("quantized linear dimensions out of range");
  }
  // Every vector read is bounded by the element count the validated dims
  // imply — a corrupt length field fails *before* any allocation instead of
  // driving a huge one from untrusted bundle bytes.
  const uint64_t weight_count = layer->in_dim_ * layer->out_dim_;
  MAGNETO_ASSIGN_OR_RETURN(layer->weight_.data,
                           reader->ReadI8VectorExpected(weight_count));
  MAGNETO_ASSIGN_OR_RETURN(layer->weight_.scales,
                           reader->ReadF32VectorExpected(layer->out_dim_));
  MAGNETO_ASSIGN_OR_RETURN(layer->bias_,
                           reader->ReadF32VectorExpected(layer->out_dim_));
  layer->weight_.rows = layer->in_dim_;
  layer->weight_.cols = layer->out_dim_;
  for (float s : layer->weight_.scales) {
    // A NaN/inf/zero/negative scale silently poisons every embedding that
    // flows through the layer; reject at the trust boundary instead.
    if (!std::isfinite(s) || s <= 0.0f) {
      return Status::Corruption("quantized linear scale not finite-positive");
    }
  }
  for (float b : layer->bias_) {
    if (!std::isfinite(b)) {
      return Status::Corruption("quantized linear bias not finite");
    }
  }
  return layer;
}

}  // namespace magneto::nn
