#ifndef MAGNETO_NN_SEQUENTIAL_H_
#define MAGNETO_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "nn/layer.h"
#include "nn/workspace.h"

namespace magneto::nn {

/// A feed-forward stack of layers — MAGNETO's backbone container.
///
/// Move-only (owns its layers). `Clone()` deep-copies parameters, which is
/// how the incremental learner freezes the pre-update "teacher" model for
/// distillation.
///
/// The network holds parameters only; every per-run tensor lives in the
/// caller's `ForwardWorkspace`. `Forward` is therefore `const` and one
/// network instance serves any number of concurrent forwards, each caller
/// bringing its own workspace — the session/run-context split that lets the
/// fleet's micro-batcher embed lock-free.
class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) noexcept = default;
  Sequential& operator=(Sequential&&) noexcept = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  void Add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  /// Runs all layers through `ws`. With `record` the per-layer activations
  /// are kept in the workspace so `Backward` can run; without it the layers
  /// ping-pong between two reusable buffers and nothing is retained. The
  /// returned reference points into `ws` and stays valid until the
  /// workspace's next forward. `input` must not be a buffer inside `ws`.
  const Matrix& Forward(const Matrix& input, ForwardWorkspace* ws,
                        bool record = false) const;

  /// Backpropagates through the activations recorded in `ws` (which must be
  /// the workspace of the matching recorded `Forward`); every layer
  /// accumulates its parameter gradients. dLoss/dInput of the network is
  /// not computed: the first layer gets a null `grad_input`.
  void Backward(const Matrix& grad_output, ForwardWorkspace* ws);

  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();
  void ZeroGrad();

  /// Total learnable scalar count.
  size_t NumParameters() const;

  /// Width the network expects as input (first constrained layer), or 0 if
  /// unconstrained (e.g. activations only).
  size_t InputDim() const;

  /// Deep copy with parameter values.
  Sequential Clone() const;

  /// Human-readable architecture summary, one layer per line.
  std::string Summary() const;

  void Serialize(BinaryWriter* writer) const;
  /// Reads Linear, ReLU and int8 Linear layers; any other tag, or a layer
  /// whose fixed input width differs from the width the layers before it
  /// produce, is Corruption.
  static Result<Sequential> Deserialize(BinaryReader* reader);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds the paper's backbone: an MLP over `input_dim` features with hidden
/// widths `dims` (last entry = embedding dim), ReLU between layers, no final
/// activation. The paper's default is dims = {1024, 512, 128, 64, 128} on 80
/// input features (§3.2 item 2).
Sequential BuildMlp(size_t input_dim, const std::vector<size_t>& dims,
                    Rng* rng);

/// The exact paper configuration: 80 -> [1024, 512, 128, 64] -> 128.
Sequential BuildPaperBackbone(Rng* rng);

}  // namespace magneto::nn

#endif  // MAGNETO_NN_SEQUENTIAL_H_
