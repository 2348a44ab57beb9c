#include "nn/sequential.h"

#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/quantized_linear.h"
#include "preprocess/features.h"

namespace magneto::nn {

const Matrix& Sequential::Forward(const Matrix& input, ForwardWorkspace* ws,
                                  bool record) const {
  MAGNETO_CHECK(ws != nullptr);
  ws->PrepareLayers(layers_.size());
  ws->recorded_ = record;
  ws->recorded_net_ = record ? this : nullptr;
  ws->recorded_layers_ = layers_.size();
  if (record) {
    // Per-layer activation slots: acts_[i] is layer i's input, so Backward
    // can replay the stack without any layer caching its own copy.
    ws->acts_[0].CopyFrom(input);
    for (size_t i = 0; i < layers_.size(); ++i) {
      layers_[i]->Forward(ws->acts_[i], /*training=*/false, &ws->states_[i],
                          &ws->acts_[i + 1]);
    }
    return ws->acts_[layers_.size()];
  }
  // Inference: ping-pong between two reusable buffers — no per-layer
  // temporaries, no caches, nothing written outside `ws`. A Linear followed
  // by a ReLU runs as one call (Linear::ForwardFused), same bits.
  if (layers_.empty()) {
    ws->io_[0].CopyFrom(input);
    return ws->io_[0];
  }
  const Matrix* x = &input;
  size_t flip = 0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Matrix* out = &ws->io_[flip];
    const Layer& layer = *layers_[i];
    if (layer.type() == LayerType::kLinear && i + 1 < layers_.size() &&
        layers_[i + 1]->type() == LayerType::kRelu) {
      static_cast<const Linear&>(layer).ForwardFused(*x, /*relu=*/true, out);
      ++i;
    } else {
      layer.Forward(*x, /*training=*/false, /*state=*/nullptr, out);
    }
    x = out;
    flip ^= 1;
  }
  return *x;
}

void Sequential::Backward(const Matrix& grad_output, ForwardWorkspace* ws) {
  MAGNETO_CHECK(ws != nullptr);
  MAGNETO_CHECK(ws->recorded_ && ws->recorded_net_ == this &&
                ws->recorded_layers_ == layers_.size());
  const Matrix* g = &grad_output;
  size_t flip = 0;
  for (size_t i = layers_.size(); i-- > 0;) {
    Matrix* gi = i > 0 ? &ws->grad_[flip] : nullptr;
    layers_[i]->Backward(*g, ws->acts_[i], ws->acts_[i + 1], &ws->states_[i],
                         gi);
    g = gi;
    flip ^= 1;
  }
}

std::vector<Matrix*> Sequential::Params() {
  std::vector<Matrix*> params;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> Sequential::Grads() {
  std::vector<Matrix*> grads;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) grads.push_back(g);
  }
  return grads;
}

void Sequential::ZeroGrad() {
  for (auto& layer : layers_) layer->ZeroGrad();
}

size_t Sequential::NumParameters() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    // Params() is non-const by design (optimisers mutate); cast is safe here
    // because we only read sizes.
    for (Matrix* p : const_cast<Layer&>(*layer).Params()) n += p->size();
  }
  return n;
}

size_t Sequential::InputDim() const {
  for (const auto& layer : layers_) {
    if (layer->input_dim() > 0) return layer->input_dim();
  }
  return 0;
}

Sequential Sequential::Clone() const {
  Sequential clone;
  for (const auto& layer : layers_) clone.Add(layer->Clone());
  return clone;
}

std::string Sequential::Summary() const {
  std::string out;
  for (const auto& layer : layers_) {
    out += layer->name();
    out += "\n";
  }
  return out;
}

void Sequential::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(layers_.size());
  for (const auto& layer : layers_) layer->Serialize(writer);
}

Result<Sequential> Sequential::Deserialize(BinaryReader* reader) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  Sequential net;
  // Width the layers read so far produce; 0 until a fixed-width layer.
  size_t width = 0;
  for (uint64_t i = 0; i < n; ++i) {
    MAGNETO_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
    std::unique_ptr<Layer> layer;
    if (tag == static_cast<uint8_t>(LayerType::kLinear)) {
      MAGNETO_ASSIGN_OR_RETURN(layer, Linear::Deserialize(reader));
    } else if (tag == static_cast<uint8_t>(LayerType::kRelu)) {
      layer = std::make_unique<Relu>();
    } else if (tag == kQuantizedLinearTag) {
      MAGNETO_ASSIGN_OR_RETURN(layer, QuantizedLinear::Deserialize(reader));
    } else {
      return Status::Corruption("unknown layer tag: " + std::to_string(tag));
    }
    // The bundle CRC does not vouch for content: a stack that loads must
    // also run, or its first forward aborts on the width check in Forward.
    const size_t in = layer->input_dim();
    if (in != 0 && width != 0 && in != width) {
      return Status::Corruption(
          "layer " + std::to_string(i) + " expects width " +
          std::to_string(in) + " but the layers before it produce " +
          std::to_string(width));
    }
    width = layer->output_dim(width);
    net.Add(std::move(layer));
  }
  return net;
}

Sequential BuildMlp(size_t input_dim, const std::vector<size_t>& dims,
                    Rng* rng) {
  MAGNETO_CHECK(!dims.empty());
  Sequential net;
  size_t in = input_dim;
  for (size_t i = 0; i < dims.size(); ++i) {
    net.Add(std::make_unique<Linear>(in, dims[i], rng));
    if (i + 1 < dims.size()) net.Add(std::make_unique<Relu>());
    in = dims[i];
  }
  return net;
}

Sequential BuildPaperBackbone(Rng* rng) {
  return BuildMlp(preprocess::kNumFeatures, {1024, 512, 128, 64, 128}, rng);
}

}  // namespace magneto::nn
