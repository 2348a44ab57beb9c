#ifndef MAGNETO_CORE_EDGE_RUNTIME_H_
#define MAGNETO_CORE_EDGE_RUNTIME_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/async_updater.h"
#include "core/edge_model.h"
#include "core/incremental_learner.h"
#include "core/model_bundle.h"
#include "core/stream_session.h"
#include "core/support_set.h"
#include "sensors/recording.h"
#include "sensors/sensor_types.h"

namespace magneto::core {

/// What the runtime is currently doing with incoming frames.
enum class RuntimeMode : uint8_t {
  kInference = 0,  ///< classify every completed window
  kRecording = 1,  ///< accumulate frames for a new-activity capture
};

/// Lifetime counters of the runtime: its stream's, plus committed updates.
struct RuntimeStats : StreamStats {
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
/// The runtime is one `StreamSession` plus the model, the capture buffer and
/// the background updater, which runs every update; `platform::EdgeFleet`
/// streams through the same session type.
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

  /// Ends the capture and learns it as the new activity `name` (§3.3):
  /// `FinishRecordingAndLearnAsync(name)`, then `CommitUpdate()`. Refused,
  /// with the capture kept, while another update is pending.
  Result<UpdateReport> FinishRecordingAndLearn(const std::string& name);

  /// Ends the capture and re-calibrates the existing activity `name`:
  /// `FinishRecordingAndCalibrateAsync(name)`, then `CommitUpdate()`.
  Result<UpdateReport> FinishRecordingAndCalibrate(const std::string& name);

  /// Discards the capture and returns to inference.
  void CancelRecording();

  // -- Background learning (model hot-swap) -------------------------------------

  /// Ends the capture and learns it in the background: inference resumes
  /// immediately on the *current* model; call `CommitUpdate` once
  /// `UpdateReady()` to swap in the retrained one. Fails with
  /// FailedPrecondition, before touching the capture, while an update is
  /// pending.
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
  /// every successful `CommitUpdate` (which the synchronous calls end in).
  /// A failed or rolled-back update writes nothing, so the on-disk
  /// checkpoint always holds the last committed model and a crash mid-update
  /// recovers to the pre-update state via the `.lkg` path.
  void EnableAutoCheckpoint(std::string path);
  void DisableAutoCheckpoint();

  // -- Stream consumers: smoothing, drift monitoring, activity journal -------

  /// Turns on temporal majority smoothing of the prediction stream.
  void EnableSmoothing(PredictionSmoother::Options options) {
    session_.EnableSmoothing(options);
  }
  void DisableSmoothing() { session_.DisableSmoothing(); }

  /// Arms the drift monitor on the emitted prediction stream. Pass the
  /// healthy nearest-prototype distance (e.g. from
  /// `CalibrateRejectionThreshold` without headroom) as `baseline_distance`,
  /// or 0 to alarm on confidence only.
  void EnableDriftMonitoring(DriftMonitor::Options options,
                             double baseline_distance = 0.0) {
    session_.EnableDriftMonitoring(options, baseline_distance);
  }
  void DisableDriftMonitoring() { session_.DisableDriftMonitoring(); }
  /// True while the armed monitor recommends calibration.
  bool Drifting() const { return session_.Drifting(); }

  /// Starts accumulating the on-device activity ledger.
  void EnableJournal() {
    session_.EnableJournal(model_.pipeline().config().segmentation,
                           sample_rate_hz_);
  }
  /// The ledger, or nullptr if not enabled.
  const ActivityJournal* journal() const { return session_.journal(); }

  // -- Introspection -----------------------------------------------------------

  RuntimeMode mode() const { return mode_; }
  RuntimeStats stats() const { return {session_.stats(), updates_}; }
  double recorded_seconds() const;
  const std::optional<NamedPrediction>& last_prediction() const {
    return session_.last_prediction();
  }
  EdgeModel& model() { return model_; }
  const EdgeModel& model() const { return model_; }
  const SupportSet& support() const { return support_; }

 private:
  sensors::Recording FinishCapture();

  EdgeModel model_;
  SupportSet support_;
  double sample_rate_hz_;
  std::unique_ptr<AsyncUpdater> updater_;  ///< never null
  StreamSession session_;

  std::string auto_checkpoint_path_;  ///< empty = auto-checkpointing off

  RuntimeMode mode_ = RuntimeMode::kInference;
  std::vector<sensors::Frame> capture_buffer_;
  size_t updates_ = 0;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_EDGE_RUNTIME_H_
