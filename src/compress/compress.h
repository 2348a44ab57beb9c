#ifndef MAGNETO_COMPRESS_COMPRESS_H_
#define MAGNETO_COMPRESS_COMPRESS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "nn/sequential.h"
#include "sensors/dataset.h"

namespace magneto::compress {

/// Model-compression toolkit for the edge deployment — the techniques the
/// paper's related-work section names as the standard levers for "model
/// inference on the Edge" (§2.1): weight quantization, parameter pruning
/// (Han et al.), low-rank factorization (Denton et al.), and knowledge
/// distillation into a smaller student (Hinton et al.). All operate on the
/// backbone after cloud pre-training; bench_compression compares the
/// size/accuracy/latency trade-offs.

/// Replaces every `Linear` with an int8 `QuantizedLinear`; every other layer
/// (ReLU) is copied as is. The result is inference-only.
Result<nn::Sequential> QuantizeBackbone(const nn::Sequential& net);

/// Magnitude pruning: zeroes the smallest-|w| `fraction` of each Linear's
/// weights (per layer, biases untouched). Returns the achieved global
/// sparsity over prunable weights.
Result<double> PruneByMagnitude(nn::Sequential* net, double fraction);

/// Fraction of exactly-zero weights across all Linear layers.
double Sparsity(const nn::Sequential& net);

/// Bytes of a sparse encoding of the backbone (COO: u32 index + f32 value
/// per nonzero, plus dense biases) — what a pruned model would cost to ship.
size_t SparseEncodedBytes(const nn::Sequential& net);

/// Low-rank factorization: replaces each Linear(in, out) whose spectrum
/// allows it with Linear(in, k) -> Linear(k, out), where k captures
/// `energy_fraction` of the squared singular values. Layers where the
/// factored form would not be smaller are kept verbatim.
Result<nn::Sequential> FactorizeBackbone(const nn::Sequential& net,
                                         double energy_fraction);

/// Hyperparameters for distilling a compact student.
struct StudentOptions {
  std::vector<size_t> dims = {64, 32};  ///< student hidden widths
  size_t epochs = 40;
  size_t batch_size = 64;
  double learning_rate = 1e-3;
  uint64_t seed = 123;
};

/// Knowledge distillation (model-size flavour): trains a fresh student MLP to
/// reproduce the teacher's embeddings on `transfer_data`. The student's final
/// width must match the teacher's embedding dim (it is appended
/// automatically). Returns the trained student and the final MSE via
/// `final_loss`.
Result<nn::Sequential> DistillStudent(const nn::Sequential& teacher,
                                      const sensors::FeatureDataset& transfer_data,
                                      const StudentOptions& options,
                                      double* final_loss = nullptr);

/// Serialised size of a backbone in bytes.
size_t SerializedBytes(const nn::Sequential& net);

}  // namespace magneto::compress

#endif  // MAGNETO_COMPRESS_COMPRESS_H_
