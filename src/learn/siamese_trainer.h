#ifndef MAGNETO_LEARN_SIAMESE_TRAINER_H_
#define MAGNETO_LEARN_SIAMESE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "learn/ewc.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "sensors/dataset.h"

namespace magneto::learn {

/// Which distillation flavour to use against the frozen teacher.
enum class DistillationKind : uint8_t {
  kMse = 0,
  kCosine = 1,
};

/// Hyperparameters of one (pre-)training or incremental-update run: Adam
/// over the pairwise contrastive loss, plus optional distillation and EWC.
struct TrainOptions {
  size_t epochs = 20;
  size_t batch_size = 64;
  /// Pair draws per epoch; 0 -> 2x dataset size.
  size_t pairs_per_epoch = 0;
  double learning_rate = 1e-3;
  double weight_decay = 0.0;

  /// Pairwise contrastive margin. Roomy margins (several units) preserve
  /// class structure much better than the textbook 1.0, which over-compresses
  /// the embedding and merges adjacent classes (ablated in bench_pretraining).
  double margin = 5.0;

  /// Weight of the distillation term; 0 disables distillation (plain
  /// pre-training). The paper's incremental step uses a positive weight
  /// (§3.3 step 3: "combination of Contrastive and Distillation Loss").
  double distill_weight = 0.0;
  DistillationKind distillation = DistillationKind::kMse;

  /// Weight of the EWC penalty (0 disables). An alternative/complementary
  /// anti-forgetting mechanism to distillation; requires passing an
  /// `EwcRegularizer` to `Train`.
  double ewc_weight = 0.0;

  uint64_t seed = 42;
};

/// Per-epoch training telemetry.
struct EpochStats {
  double embedding_loss = 0.0;  ///< mean pairwise contrastive loss
  double distill_loss = 0.0;    ///< mean distillation loss (0 if disabled)
};

/// Result of a training run.
struct TrainReport {
  std::vector<EpochStats> epochs;
  double final_embedding_loss() const {
    return epochs.empty() ? 0.0 : epochs.back().embedding_loss;
  }
  double final_distill_loss() const {
    return epochs.empty() ? 0.0 : epochs.back().distill_loss;
  }
};

/// Trains MAGNETO's Siamese embedding network.
///
/// Pre-training (cloud) and incremental updates (edge) run the *same* loop;
/// the only difference is that an update passes the frozen pre-update model
/// as `teacher` plus the old-class exemplars as `distill_data`, activating
/// the joint objective
///
///   L = L_contrastive(support pairs) + lambda * L_distill(student, teacher)
///
/// which is the paper's anti-catastrophic-forgetting mechanism (§3.3).
class SiameseTrainer {
 public:
  explicit SiameseTrainer(TrainOptions options) : options_(options) {}

  const TrainOptions& options() const { return options_; }

  /// Trains `net` in place on `data`.
  ///
  /// If `teacher` is non-null, `distill_data` must be non-null and non-empty:
  /// every step also pulls the student's embeddings of `distill_data` toward
  /// the teacher's (computed once, up front — the teacher is frozen).
  Result<TrainReport> Train(nn::Sequential* net,
                            const sensors::FeatureDataset& data,
                            const nn::Sequential* teacher = nullptr,
                            const sensors::FeatureDataset* distill_data =
                                nullptr,
                            const EwcRegularizer* ewc = nullptr) const;

 private:
  TrainOptions options_;
};

}  // namespace magneto::learn

#endif  // MAGNETO_LEARN_SIAMESE_TRAINER_H_
