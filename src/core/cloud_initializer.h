#ifndef MAGNETO_CORE_CLOUD_INITIALIZER_H_
#define MAGNETO_CORE_CLOUD_INITIALIZER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/model_bundle.h"
#include "learn/siamese_trainer.h"
#include "preprocess/pipeline.h"
#include "sensors/activity.h"
#include "sensors/synthetic_generator.h"

namespace magneto::core {

/// Configuration of the offline cloud step.
struct CloudConfig {
  preprocess::PipelineConfig pipeline;

  /// Backbone hidden widths, last entry = embedding dim. Defaults to the
  /// paper's FC dims [1024 x 512 x 128 x 64 x 128] (§3.2 item 2).
  std::vector<size_t> backbone_dims = {1024, 512, 128, 64, 128};

  /// Pre-training hyperparameters (no distillation here — there is no prior
  /// model to preserve).
  learn::TrainOptions train;

  /// Support exemplars kept per class; the paper's example figure is 200.
  size_t support_capacity = 200;
  SelectionStrategy selection = SelectionStrategy::kHerding;

  uint64_t seed = 7;
};

/// Report of a cloud initialization run.
struct CloudReport {
  learn::TrainReport train;
  size_t training_windows = 0;
  size_t bundle_bytes = 0;
};

/// The paper's offline step (§3.2): pre-trains the whole platform on the
/// initial corpus and packages every transferable item into a `ModelBundle`.
///
/// Runs "in the cloud" only in the deployment sense — it is ordinary library
/// code, executed wherever the open initial dataset lives. No user data is
/// involved (Definition 1).
class CloudInitializer {
 public:
  explicit CloudInitializer(CloudConfig config) : config_(std::move(config)) {}

  const CloudConfig& config() const { return config_; }

  /// Full offline pipeline over the initial corpus:
  ///   1. fit the preprocessing function (freeze normaliser stats),
  ///   2. train the Siamese embedding backbone with contrastive loss,
  ///   3. select support exemplars per class,
  ///   4. compute NCM prototypes,
  ///   5. assemble the transferable bundle.
  /// `registry` must name every label appearing in `corpus`.
  Result<ModelBundle> Initialize(
      const std::vector<sensors::LabeledRecording>& corpus,
      const sensors::ActivityRegistry& registry,
      CloudReport* report = nullptr) const;

 private:
  CloudConfig config_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_CLOUD_INITIALIZER_H_
