#ifndef MAGNETO_CORE_EDGE_RUNTIME_H_
#define MAGNETO_CORE_EDGE_RUNTIME_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/activity_journal.h"
#include "core/async_updater.h"
#include "core/edge_model.h"
#include "core/incremental_learner.h"
#include "core/drift_monitor.h"
#include "core/model_bundle.h"
#include "core/smoother.h"
#include "core/support_set.h"
#include "sensors/recording.h"
#include "sensors/sensor_types.h"

namespace magneto::core {

/// What the runtime is currently doing with incoming frames.
enum class RuntimeMode : uint8_t {
  kInference = 0,  ///< classify every completed window
  kRecording = 1,  ///< accumulate frames for a new-activity capture
};

/// Lifetime counters of the runtime.
struct RuntimeStats {
  size_t frames = 0;
  size_t windows = 0;
  size_t predictions = 0;
  size_t updates = 0;
};

/// The online half of MAGNETO: a streaming state machine that mirrors the
/// Android app's behaviour (Figure 3).
///
/// Sensor frames are pushed one at a time. In inference mode every completed
/// window (per the pipeline's segmentation config) produces a prediction —
/// the "(a)/(b) real-time inference" panels. Switching to recording mode
/// buffers frames for a new-activity capture — panel (c); finishing the
/// recording triggers the on-device incremental update — panel (d); the
/// runtime then resumes inference with the enriched model — panel (e).
class EdgeRuntime {
 public:
  /// Takes ownership of the deployed model and support set (both came out of
  /// the cloud bundle).
  EdgeRuntime(EdgeModel model, SupportSet support, IncrementalOptions options,
              double sample_rate_hz = sensors::kDefaultSampleRateHz);

  // -- Streaming ---------------------------------------------------------------

  /// Feeds one frame. In inference mode, returns a prediction whenever the
  /// frame completes a window; otherwise nullopt.
  Result<std::optional<NamedPrediction>> PushFrame(const sensors::Frame& frame);

  // -- Recording / learning ----------------------------------------------------

  Status StartRecording();

  /// Ends the capture and learns it as the new activity `name` (§3.3).
  Result<UpdateReport> FinishRecordingAndLearn(const std::string& name);

  /// Ends the capture and re-calibrates the existing activity `name`.
  Result<UpdateReport> FinishRecordingAndCalibrate(const std::string& name);

  /// Discards the capture and returns to inference.
  void CancelRecording();

  // -- Background learning (model hot-swap) -------------------------------------

  /// Ends the capture and learns it in the background: inference resumes
  /// immediately on the *current* model; call `CommitUpdate` once
  /// `UpdateReady()` to swap in the retrained one.
  Status FinishRecordingAndLearnAsync(const std::string& name);

  /// Same, but re-calibrating the existing activity `name`.
  Status FinishRecordingAndCalibrateAsync(const std::string& name);

  /// True while a background update is in flight or awaiting commit.
  bool UpdatePending() const;

  /// True once the background update finished and CommitUpdate won't block.
  bool UpdateReady() const;

  /// Blocks for the background update if needed, swaps the retrained model
  /// and support set in, and returns the report. On training failure the
  /// current model stays in place and the error is returned.
  Result<UpdateReport> CommitUpdate();

  // -- Crash-safe persistence ---------------------------------------------------

  /// Deep-copies the current model + support set into a transferable bundle
  /// (the exact artifact a fresh provisioning would ship).
  ModelBundle ToBundle() const;

  /// `<path>.lkg` — where `SaveCheckpoint` rotates the previous checkpoint.
  static std::string LastKnownGoodPath(const std::string& path);

  /// Crash-safe checkpoint: rotates any existing file at `path` to
  /// `LastKnownGoodPath(path)`, then atomically writes the current state.
  /// A crash at any point leaves at least one loadable checkpoint on disk.
  Status SaveCheckpoint(const std::string& path) const;

  /// Boots a runtime from a checkpoint, falling back to the last-known-good
  /// file when the primary is missing or corrupt (counted under
  /// `edge.checkpoint.fallbacks`) instead of failing closed.
  static Result<EdgeRuntime> FromCheckpoint(
      const std::string& path, IncrementalOptions options,
      double sample_rate_hz = sensors::kDefaultSampleRateHz);

  /// Arms commit-point checkpointing: `SaveCheckpoint(path)` runs after
  /// every *committed* update (FinishRecordingAndLearn/-Calibrate and
  /// CommitUpdate). A failed or rolled-back update writes nothing, so the
  /// on-disk checkpoint always holds the last committed model and a crash
  /// mid-update recovers to the pre-update state via the `.lkg` path.
  void EnableAutoCheckpoint(std::string path);
  void DisableAutoCheckpoint();

  // -- Output smoothing ----------------------------------------------------------

  /// Turns on temporal majority smoothing of the prediction stream.
  void EnableSmoothing(PredictionSmoother::Options options);
  void DisableSmoothing();

  // -- Drift monitoring ------------------------------------------------------------

  /// Arms the drift monitor on the emitted prediction stream. Pass the
  /// healthy nearest-prototype distance (e.g. from
  /// `CalibrateRejectionThreshold` without headroom) as `baseline_distance`,
  /// or 0 to alarm on confidence only.
  void EnableDriftMonitoring(DriftMonitor::Options options,
                             double baseline_distance = 0.0);
  void DisableDriftMonitoring();

  /// True while the armed monitor recommends calibration.
  bool Drifting() const;

  // -- Activity journal ---------------------------------------------------------------

  /// Starts accumulating the on-device activity ledger.
  void EnableJournal();

  /// The ledger, or nullptr if not enabled.
  const ActivityJournal* journal() const { return journal_.get(); }

  // -- Introspection -----------------------------------------------------------

  RuntimeMode mode() const { return mode_; }
  const RuntimeStats& stats() const { return stats_; }
  double recorded_seconds() const;
  const std::optional<NamedPrediction>& last_prediction() const {
    return last_prediction_;
  }
  EdgeModel& model() { return model_; }
  const EdgeModel& model() const { return model_; }
  const SupportSet& support() const { return support_; }

 private:
  /// Copies a full window off the stream buffer into `window_`, advancing by
  /// the segmentation stride.
  void TakeWindow();

  sensors::Recording FinishCapture();

  /// Commit point of a successful update: bumps the update counters and,
  /// when auto-checkpointing is armed, persists the committed state.
  void OnUpdateCommitted();

  EdgeModel model_;
  SupportSet support_;
  IncrementalOptions update_options_;
  IncrementalLearner learner_;
  double sample_rate_hz_;
  std::unique_ptr<AsyncUpdater> updater_;
  std::unique_ptr<PredictionSmoother> smoother_;
  std::unique_ptr<DriftMonitor> drift_monitor_;
  std::unique_ptr<ActivityJournal> journal_;

  std::string auto_checkpoint_path_;  ///< empty = auto-checkpointing off

  RuntimeMode mode_ = RuntimeMode::kInference;
  /// Inference frames not yet consumed, oldest first, in one contiguous
  /// block. It never holds more than a window, so once the first window has
  /// filled it the buffer is only shifted, never reallocated.
  std::vector<sensors::Frame> stream_buffer_;
  Matrix window_;  ///< the window being classified, reused
  size_t pending_skip_ = 0;  ///< frames to drop (stride > window configs)
  std::vector<sensors::Frame> capture_buffer_;
  std::optional<NamedPrediction> last_prediction_;
  RuntimeStats stats_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_EDGE_RUNTIME_H_
