#include "nn/dropout.h"

namespace magneto::nn {

Dropout::Dropout(double p, uint64_t seed) : p_(p), seed_(seed) {
  MAGNETO_CHECK(p >= 0.0 && p < 1.0);
}

void Dropout::Forward(const Matrix& input, bool training, LayerState* state,
                      Matrix* output) const {
  if (!training || p_ == 0.0) {
    if (state != nullptr) state->flag = false;
    output->CopyFrom(input);
    return;
  }
  MAGNETO_CHECK(state != nullptr);  // the mask RNG lives in the run state
  state->flag = true;
  if (state->rng == nullptr || state->rng_seed != seed_) {
    state->rng = std::make_unique<Rng>(seed_);
    state->rng_seed = seed_;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  state->cached.ResetForOverwrite(input.rows(), input.cols());
  output->ResetForOverwrite(input.rows(), input.cols());
  const float* in = input.data();
  float* out = output->data();
  float* mask = state->cached.data();
  for (size_t i = 0; i < input.size(); ++i) {
    if (state->rng->Bernoulli(p_)) {
      out[i] = 0.0f;
      mask[i] = 0.0f;
    } else {
      out[i] = in[i] * keep_scale;
      mask[i] = keep_scale;
    }
  }
}

void Dropout::Backward(const Matrix& grad_output, const Matrix& /*input*/,
                       const Matrix& /*output*/, LayerState* state,
                       Matrix* grad_input) {
  if (grad_input == nullptr) return;
  if (p_ == 0.0 || state == nullptr || !state->flag) {
    grad_input->CopyFrom(grad_output);
    return;
  }
  MAGNETO_CHECK(grad_output.SameShape(state->cached));
  grad_input->CopyFrom(grad_output);
  grad_input->MulInPlace(state->cached);
}

std::string Dropout::name() const {
  return "Dropout(p=" + std::to_string(p_) + ")";
}

std::unique_ptr<Layer> Dropout::Clone() const {
  return std::make_unique<Dropout>(p_, seed_);
}

void Dropout::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(LayerType::kDropout));
  writer->WriteF64(p_);
  writer->WriteU64(seed_);
}

Result<std::unique_ptr<Dropout>> Dropout::Deserialize(BinaryReader* reader) {
  MAGNETO_ASSIGN_OR_RETURN(double p, reader->ReadF64());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t seed, reader->ReadU64());
  if (p < 0.0 || p >= 1.0) {
    return Status::Corruption("dropout p out of range");
  }
  return std::make_unique<Dropout>(p, seed);
}

}  // namespace magneto::nn
