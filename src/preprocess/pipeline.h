#ifndef MAGNETO_PREPROCESS_PIPELINE_H_
#define MAGNETO_PREPROCESS_PIPELINE_H_

#include <vector>

#include "common/result.h"
#include "common/serial.h"
#include "preprocess/denoise.h"
#include "preprocess/features.h"
#include "preprocess/normalization.h"
#include "preprocess/segmentation.h"
#include "preprocess/window_featurizer.h"
#include "sensors/dataset.h"
#include "sensors/synthetic_generator.h"

namespace magneto::preprocess {

/// Configuration of the full preprocessing function.
struct PipelineConfig {
  DenoiseConfig denoise;
  SegmentationConfig segmentation;
  NormalizationMethod normalization = NormalizationMethod::kZScore;

  void Serialize(BinaryWriter* writer) const;
  static Result<PipelineConfig> Deserialize(BinaryReader* reader);
};

/// The paper's "pre-processing function" (§3.2 item 1): segmentation ->
/// denoising -> feature extraction -> normalisation, as one serialisable
/// unit that the cloud ships to the edge.
///
/// Segment first, with one per-window operator for training and serving:
/// `Fit`, `Process` and `ProcessLabeled` run each window of a recording
/// through the `WindowFeaturizer` a stream pushes its frames into, so a
/// training row is bit-for-bit the row the stream serves for the same
/// frames. The cloud `Fit`s the normaliser once; the edge applies it frozen.
class Pipeline {
 public:
  Pipeline() = default;
  explicit Pipeline(PipelineConfig config) : config_(config) {}

  const PipelineConfig& config() const { return config_; }
  const Normalizer& normalizer() const { return normalizer_; }
  bool fitted() const {
    return config_.normalization == NormalizationMethod::kNone ||
           normalizer_.dim() > 0;
  }

  /// Fits the normaliser on `recordings` and returns the processed dataset.
  /// (Cloud-side, done once.)
  Result<sensors::FeatureDataset> Fit(
      const std::vector<sensors::LabeledRecording>& recordings);

  /// Processes one recording into per-window feature vectors using the frozen
  /// normaliser. Fails with kFailedPrecondition if not fitted.
  Result<std::vector<std::vector<float>>> Process(
      const sensors::Recording& recording) const;

  /// Starts `featurizer` on a window of `n` raw rows: this pipeline's
  /// denoising, then the features' first sweep. A stream pushes each frame
  /// into it as the frame arrives.
  void BeginWindow(size_t n, WindowFeaturizer* featurizer) const;

  /// Finishes the window `featurizer` holds (`raw`: its raw rows, back to
  /// back) into `out`, a 1 x feature_dim() row: the rest of the features,
  /// then the frozen normaliser. A warmed `featurizer` and `out` make it
  /// allocation-free. Fails with kFailedPrecondition if not fitted.
  Status FinishWindow(const float* raw, WindowFeaturizer* featurizer,
                      Matrix* out) const;

  /// Processes one already-segmented window into `out`, a 1 x feature_dim()
  /// row, by pushing every row through `featurizer` and finishing it: the
  /// stream path's operator over a whole window. The featurizer is the
  /// caller's, as `nn::ForwardWorkspace` is for the backbone: one per
  /// concurrent caller, so a warmed one takes a window through denoising,
  /// features and normalisation without a heap allocation.
  Status ProcessWindow(const Matrix& window, WindowFeaturizer* featurizer,
                       Matrix* out) const;

  /// Processes one already-segmented window; a wrapper over the overload
  /// above.
  Result<std::vector<float>> ProcessWindow(const Matrix& window) const;

  /// Processes labeled recordings into a labeled dataset (frozen normaliser).
  Result<sensors::FeatureDataset> ProcessLabeled(
      const std::vector<sensors::LabeledRecording>& recordings) const;

  void Serialize(BinaryWriter* writer) const;
  static Result<Pipeline> Deserialize(BinaryReader* reader);

  /// Feature dimension this pipeline produces per window.
  size_t feature_dim() const { return kNumFeatures; }

 private:
  /// The batch loop: each window (a pointer to its first raw row) through
  /// the per-window core into one row, then the frozen normaliser when
  /// `normalize`.
  Result<Matrix> WindowRows(const std::vector<const float*>& windows,
                            bool normalize) const;

  /// WindowRows over every window of `recordings`, labeled, in order.
  Result<sensors::FeatureDataset> LabeledRows(
      const std::vector<sensors::LabeledRecording>& recordings,
      bool normalize) const;

  PipelineConfig config_;
  Normalizer normalizer_;
};

}  // namespace magneto::preprocess

#endif  // MAGNETO_PREPROCESS_PIPELINE_H_
