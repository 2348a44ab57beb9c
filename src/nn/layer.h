#ifndef MAGNETO_NN_LAYER_H_
#define MAGNETO_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/serial.h"
#include "nn/workspace.h"

namespace magneto::nn {

/// Serialisation tags for layer types (stable on-disk ids). The int8 layer
/// uses tag 6 (`kQuantizedLinearTag`). Tags 3, 4, 5 and 7 are retired: old
/// files may hold them and the reader rejects them, so a new layer type
/// takes a fresh id.
enum class LayerType : uint8_t {
  kLinear = 1,
  kRelu = 2,
};

/// A differentiable network layer.
///
/// MAGNETO's backbone is a plain MLP, so the layer contract is the classic
/// batch one: `Forward` maps a (batch x in_dim) matrix to (batch x out_dim);
/// `Backward` receives dLoss/dOutput, *accumulates* parameter gradients, and
/// produces dLoss/dInput. Gradients accumulate across calls until `ZeroGrad`
/// — that is what lets the joint contrastive + distillation objective sum
/// several loss terms per step.
///
/// Layers are stateless across runs: `Forward` is `const` and every
/// per-run tensor lives in the caller's `LayerState` slot and output
/// buffer, so one layer instance serves any number of concurrent forwards
/// as long as each caller brings its own state. In practice callers go through `Sequential`, which threads a
/// `ForwardWorkspace` slot per layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes `output` from `input`. `output` is a reusable caller buffer
  /// (resized in place) and must not alias `input`. Every layer ignores the
  /// `bool`: no layer behaves differently in training. `state` is the
  /// layer's per-run slot; it may be null, since no layer's forward writes
  /// it.
  virtual void Forward(const Matrix& input, bool training, LayerState* state,
                       Matrix* output) const = 0;

  /// Must follow a matching `Forward`. `input`/`output` are the tensors of
  /// that forward and `state` is the slot it recorded into (required).
  /// Accumulates parameter gradients and writes dLoss/dInput into
  /// `grad_input` (a reusable caller buffer; must not alias `grad_output`).
  /// A null `grad_input` skips dLoss/dInput: no caller reads the first
  /// layer's.
  virtual void Backward(const Matrix& grad_output, const Matrix& input,
                        const Matrix& output, LayerState* state,
                        Matrix* grad_input) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Matrix*> Params() { return {}; }

  /// Gradient buffers, parallel to `Params()`.
  virtual std::vector<Matrix*> Grads() { return {}; }

  virtual void ZeroGrad() {}

  virtual LayerType type() const = 0;
  virtual std::string name() const = 0;
  virtual size_t output_dim(size_t input_dim) const { return input_dim; }

  /// Fixed input width, or 0 if the layer accepts any width.
  virtual size_t input_dim() const { return 0; }

  /// Deep copy, including parameter values.
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Writes the layer type tag plus its own payload.
  virtual void Serialize(BinaryWriter* writer) const = 0;
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_LAYER_H_
