#include "compress/compress.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/random.h"
#include "common/svd.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/quantized_linear.h"

namespace magneto::compress {

namespace {

/// Collects the Linear layers of a net (non-owning).
std::vector<const nn::Linear*> LinearLayers(const nn::Sequential& net) {
  std::vector<const nn::Linear*> out;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    if (net.layer(i).type() == nn::LayerType::kLinear) {
      out.push_back(static_cast<const nn::Linear*>(&net.layer(i)));
    }
  }
  return out;
}

}  // namespace

Result<nn::Sequential> QuantizeBackbone(const nn::Sequential& net) {
  nn::Sequential out;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const nn::Layer& layer = net.layer(i);
    if (layer.type() == nn::LayerType::kLinear) {
      MAGNETO_ASSIGN_OR_RETURN(
          std::unique_ptr<nn::QuantizedLinear> quantized,
          nn::QuantizedLinear::FromLinear(static_cast<const nn::Linear&>(layer)));
      out.Add(std::move(quantized));
    } else {
      out.Add(layer.Clone());
    }
  }
  return out;
}

Result<double> PruneByMagnitude(nn::Sequential* net, double fraction) {
  if (net == nullptr) return Status::InvalidArgument("net must not be null");
  if (fraction < 0.0 || fraction >= 1.0) {
    return Status::InvalidArgument("prune fraction must be in [0, 1)");
  }
  for (size_t i = 0; i < net->num_layers(); ++i) {
    if (net->layer(i).type() != nn::LayerType::kLinear) continue;
    auto& linear = static_cast<nn::Linear&>(net->layer(i));
    if (fraction == 0.0) continue;
    Matrix w = linear.WeightRowMajor();

    // Per-layer magnitude threshold at the requested quantile. Ties at the
    // threshold are all pruned, so the achieved sparsity can slightly exceed
    // the request.
    std::vector<float> magnitudes(w.size());
    for (size_t j = 0; j < w.size(); ++j) {
      magnitudes[j] = std::fabs(w.data()[j]);
    }
    const size_t k = static_cast<size_t>(
        fraction * static_cast<double>(magnitudes.size()));
    if (k == 0) continue;
    std::nth_element(magnitudes.begin(), magnitudes.begin() + (k - 1),
                     magnitudes.end());
    const float threshold = magnitudes[k - 1];
    for (size_t j = 0; j < w.size(); ++j) {
      if (std::fabs(w.data()[j]) <= threshold) w.data()[j] = 0.0f;
    }
    linear.SetWeightRowMajor(w);
  }
  return Sparsity(*net);
}

double Sparsity(const nn::Sequential& net) {
  size_t zeros = 0, total = 0;
  for (const nn::Linear* linear : LinearLayers(net)) {
    const Matrix w = linear->WeightRowMajor();
    total += w.size();
    for (size_t j = 0; j < w.size(); ++j) {
      if (w.data()[j] == 0.0f) ++zeros;
    }
  }
  return total > 0 ? static_cast<double>(zeros) / static_cast<double>(total)
                   : 0.0;
}

size_t SparseEncodedBytes(const nn::Sequential& net) {
  size_t bytes = 0;
  for (const nn::Linear* linear : LinearLayers(net)) {
    const Matrix w = linear->WeightRowMajor();
    size_t nnz = 0;
    for (size_t j = 0; j < w.size(); ++j) {
      if (w.data()[j] != 0.0f) ++nnz;
    }
    bytes += nnz * (sizeof(uint32_t) + sizeof(float));  // COO entries
    bytes += linear->bias().size() * sizeof(float);     // dense bias
    bytes += 16;                                        // shape header
  }
  return bytes;
}

Result<nn::Sequential> FactorizeBackbone(const nn::Sequential& net,
                                         double energy_fraction) {
  if (energy_fraction <= 0.0 || energy_fraction > 1.0) {
    return Status::InvalidArgument("energy_fraction must be in (0, 1]");
  }
  nn::Sequential out;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const nn::Layer& layer = net.layer(i);
    if (layer.type() != nn::LayerType::kLinear) {
      out.Add(layer.Clone());
      continue;
    }
    const auto& linear = static_cast<const nn::Linear&>(layer);
    const size_t in = linear.in_dim();
    const size_t n_out = linear.out_dim();
    MAGNETO_ASSIGN_OR_RETURN(SvdResult svd, Svd(linear.WeightRowMajor()));
    size_t k = RankForEnergy(svd, energy_fraction);
    // Only factor when the two thin layers are actually smaller.
    if (k * (in + n_out) >= in * n_out) {
      out.Add(layer.Clone());
      continue;
    }
    // W ~ (U_k sqrt(S)) * (sqrt(S) Vt_k): split the spectrum evenly so both
    // factors stay well-scaled.
    Matrix first_weight(in, k), second_weight(k, n_out);
    for (size_t r = 0; r < in; ++r) {
      for (size_t c = 0; c < k; ++c) {
        first_weight.At(r, c) =
            svd.u.At(r, c) * std::sqrt(std::max(0.0f, svd.s[c]));
      }
    }
    for (size_t r = 0; r < k; ++r) {
      const float root = std::sqrt(std::max(0.0f, svd.s[r]));
      for (size_t c = 0; c < n_out; ++c) {
        second_weight.At(r, c) = root * svd.vt.At(r, c);
      }
    }
    auto first = std::make_unique<nn::Linear>(in, k);
    auto second = std::make_unique<nn::Linear>(k, n_out);
    first->SetWeightRowMajor(first_weight);
    second->SetWeightRowMajor(second_weight);
    second->bias() = linear.bias();
    out.Add(std::move(first));
    out.Add(std::move(second));
  }
  return out;
}

Result<nn::Sequential> DistillStudent(const nn::Sequential& teacher,
                                      const sensors::FeatureDataset& transfer_data,
                                      const StudentOptions& options,
                                      double* final_loss) {
  if (transfer_data.empty()) {
    return Status::InvalidArgument("transfer data is empty");
  }
  if (options.epochs == 0 || options.batch_size == 0) {
    return Status::InvalidArgument("epochs and batch_size must be > 0");
  }

  // Teacher targets, computed once. Forward is const, so the teacher can be
  // used directly — no defensive clone.
  nn::ForwardWorkspace teacher_ws;
  Matrix targets = teacher.Forward(transfer_data.ToMatrix(), &teacher_ws);
  const size_t embedding_dim = targets.cols();

  std::vector<size_t> dims = options.dims;
  dims.push_back(embedding_dim);
  Rng rng(options.seed);
  nn::Sequential student = nn::BuildMlp(transfer_data.dim(), dims, &rng);

  nn::Adam::Options adam;
  adam.learning_rate = options.learning_rate;
  nn::Adam optimizer(student.Params(), student.Grads(), adam);

  const size_t steps_per_epoch = std::max<size_t>(
      1, (transfer_data.size() + options.batch_size - 1) / options.batch_size);
  nn::ForwardWorkspace ws;
  double last_loss = 0.0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (size_t step = 0; step < steps_per_epoch; ++step) {
      optimizer.ZeroGrad();
      const size_t batch =
          std::min(options.batch_size, transfer_data.size());
      Matrix x(batch, transfer_data.dim());
      Matrix t(batch, embedding_dim);
      for (size_t b = 0; b < batch; ++b) {
        const size_t idx = rng.Index(transfer_data.size());
        std::memcpy(x.RowPtr(b), transfer_data.Row(idx),
                    transfer_data.dim() * sizeof(float));
        std::memcpy(t.RowPtr(b), targets.RowPtr(idx),
                    embedding_dim * sizeof(float));
      }
      const Matrix& pred = student.Forward(x, &ws, /*record=*/true);
      nn::LossResult loss = nn::DistillationMse(pred, t);
      student.Backward(loss.grad, &ws);
      optimizer.Step();
      epoch_loss += loss.loss;
    }
    last_loss = epoch_loss / static_cast<double>(steps_per_epoch);
  }
  if (final_loss != nullptr) *final_loss = last_loss;
  return student;
}

size_t SerializedBytes(const nn::Sequential& net) {
  BinaryWriter writer;
  net.Serialize(&writer);
  return writer.size();
}

}  // namespace magneto::compress
