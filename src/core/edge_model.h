#ifndef MAGNETO_CORE_EDGE_MODEL_H_
#define MAGNETO_CORE_EDGE_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/embedder.h"
#include "core/ncm_classifier.h"
#include "core/support_set.h"
#include "nn/sequential.h"
#include "preprocess/pipeline.h"
#include "sensors/activity.h"
#include "sensors/recording.h"

namespace magneto::core {

/// A prediction enriched with the human-readable activity name.
struct NamedPrediction {
  Prediction prediction;
  std::string name;
};

/// The complete on-device model: preprocessing function + embedding backbone
/// + NCM classifier + activity registry. Exactly the set of items §3.2 lists
/// as "transferred into the Edge device".
///
/// Move-only (owns the backbone). Implements `Embedder` so support-set
/// herding and prototype building can use it directly.
class EdgeModel : public Embedder {
 public:
  EdgeModel(preprocess::Pipeline pipeline, nn::Sequential backbone,
            NcmClassifier classifier, sensors::ActivityRegistry registry);

  EdgeModel(EdgeModel&&) noexcept = default;
  EdgeModel& operator=(EdgeModel&&) noexcept = default;

  /// Deep copy (backbone weights included). Used to snapshot the model for
  /// background updates while the original keeps serving inference.
  EdgeModel Clone() const {
    EdgeModel copy(pipeline_, backbone_.Clone(), classifier_, registry_);
    copy.rejection_threshold_ = rejection_threshold_;
    return copy;
  }

  // -- Embedder ---------------------------------------------------------------

  /// Embeds preprocessed feature vectors (inference mode) through the
  /// model's own workspace. Single-owner semantics, like the rest of
  /// EdgeModel; concurrent serving goes through EdgeFleet, which forwards
  /// the shared backbone with per-thread workspaces.
  Matrix Embed(const Matrix& features) override;
  size_t embedding_dim() const override;

  // -- Inference --------------------------------------------------------------

  /// Full path for one raw window (window_samples x 22): denoise ->
  /// featurise -> normalise -> embed -> NCM, through the model's own
  /// pipeline, forward and classifier workspaces. Once they are warmed a
  /// window makes no heap allocation. The pipeline runs the operator a
  /// stream feeds frame by frame (`preprocess::WindowFeaturizer`), so a
  /// streamed window gives the same bits.
  Result<NamedPrediction> InferWindow(const Matrix& raw_window);

  /// Embeds and classifies one preprocessed 1 x dim feature row (a stream's
  /// finished window) through the model's own workspaces.
  Result<NamedPrediction> InferFeatureRow(const Matrix& features);

  /// Segments a recording and predicts each complete window.
  Result<std::vector<NamedPrediction>> InferRecording(
      const sensors::Recording& recording);

  /// Classifies an already-preprocessed feature vector through the model's
  /// own workspaces (the vector is copied into a reused 1 x dim row).
  Result<NamedPrediction> InferFeatures(const std::vector<float>& features);

  /// Concurrent-serving variant: embeds through `workspace` instead of the
  /// model's own scratch, leaving the model untouched — `Forward` is const
  /// (PR 6), so N threads may call this on one shared model, each with its
  /// own workspace. `CloudServer::RemoteInfer` serves through this path.
  /// The overload taking a `NcmClassifier::Scratch` additionally keeps the
  /// classifier scan allocation-free (same ownership rule as the
  /// workspace: one instance per thread).
  Result<NamedPrediction> InferFeatures(const std::vector<float>& features,
                                        nn::ForwardWorkspace* workspace) const;
  Result<NamedPrediction> InferFeatures(const std::vector<float>& features,
                                        nn::ForwardWorkspace* workspace,
                                        NcmClassifier::Scratch* scratch) const;

  /// Classifies one embedded row (honouring the rejection threshold) and
  /// names it; concurrent callers each bring their own `scratch`.
  Result<NamedPrediction> ClassifyEmbedding(
      const float* embedding, size_t dim,
      NcmClassifier::Scratch* scratch) const;

  /// Evaluates on a labeled feature dataset; returns (truth, predicted)
  /// pairs for metric computation.
  Result<std::vector<std::pair<sensors::ActivityId, sensors::ActivityId>>>
  Predict(const sensors::FeatureDataset& data);

  // -- Open-set rejection --------------------------------------------------------

  /// Enables open-set rejection: windows whose embedding is farther than
  /// `threshold` from every prototype predict "Unknown" instead of the
  /// nearest known activity. Pass 0 to disable (the default).
  void set_rejection_threshold(double threshold) {
    rejection_threshold_ = threshold;
  }
  double rejection_threshold() const { return rejection_threshold_; }

  // -- Model surgery (used by the incremental learner) -------------------------

  /// Recomputes every NCM prototype from `support` through the current
  /// backbone. Call after any backbone update.
  Status RebuildPrototypes(const SupportSet& support);

  // -- Transactional weight state -----------------------------------------------

  /// The mutable knowledge of the model — everything an incremental update
  /// may change. An `UpdateTransaction` stages its work on a snapshot and
  /// installs it with a single `Restore` only once every step succeeded, so
  /// a failed update can never leave the live model half-mutated.
  struct Snapshot {
    nn::Sequential backbone;
    NcmClassifier classifier;
    sensors::ActivityRegistry registry;
    double rejection_threshold = 0.0;
  };

  /// Deep copy of the mutable state (backbone weights included).
  Snapshot TakeSnapshot() const;

  /// Installs a snapshot with a single swap (no partial visibility).
  void Restore(Snapshot&& snapshot);

  // -- Accessors ---------------------------------------------------------------

  const preprocess::Pipeline& pipeline() const { return pipeline_; }
  nn::Sequential& backbone() { return backbone_; }
  const nn::Sequential& backbone() const { return backbone_; }
  const NcmClassifier& classifier() const { return classifier_; }
  sensors::ActivityRegistry& registry() { return registry_; }
  const sensors::ActivityRegistry& registry() const { return registry_; }

  /// Serialised size of backbone parameters in bytes (fp32), for the
  /// footprint benchmarks.
  size_t BackboneBytes() const;

 private:
  NamedPrediction WithName(const Prediction& prediction) const;

  /// Embeds and classifies one 1 x dim feature row.
  Result<NamedPrediction> InferRow(const Matrix& features,
                                   nn::ForwardWorkspace* workspace,
                                   NcmClassifier::Scratch* scratch) const;

  preprocess::Pipeline pipeline_;
  nn::Sequential backbone_;
  NcmClassifier classifier_;
  sensors::ActivityRegistry registry_;
  double rejection_threshold_ = 0.0;
  nn::ForwardWorkspace embed_ws_;  ///< reused across Embed calls
  /// Reused by the single-owner inference paths (InferFeatures / Predict),
  /// keeping the classifier scan allocation-free like embed_ws_ does for
  /// the forward pass. The concurrent const path takes a caller-owned one.
  NcmClassifier::Scratch classify_scratch_;
  /// InferWindow's featurizer, and the feature row the single-owner paths
  /// embed.
  preprocess::WindowFeaturizer featurizer_;
  Matrix features_;
};

/// Computes an open-set rejection threshold empirically: the `percentile`
/// (in [0, 1]) of nearest-prototype distances over known-activity
/// `recordings`, scaled by `headroom`. Typical use: percentile 1.0 (the max
/// known distance) with headroom 1.5, right after provisioning or any
/// update. Fails if the recordings yield no complete windows.
Result<double> CalibrateRejectionThreshold(
    EdgeModel* model, const std::vector<sensors::Recording>& recordings,
    double percentile = 1.0, double headroom = 1.5);

}  // namespace magneto::core

#endif  // MAGNETO_CORE_EDGE_MODEL_H_
