#ifndef MAGNETO_CORE_STREAM_SESSION_H_
#define MAGNETO_CORE_STREAM_SESSION_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "core/activity_journal.h"
#include "core/drift_monitor.h"
#include "core/edge_model.h"
#include "core/smoother.h"
#include "obs/metrics.h"
#include "preprocess/pipeline.h"

namespace magneto::core {

/// Lifetime counters of one prediction stream.
struct StreamStats {
  size_t frames = 0;
  size_t windows = 0;
  size_t predictions = 0;
};

/// The per-stream half of the online state machine (Figure 3, panels a/b/e):
/// frames become windows, and each window's prediction runs through the
/// optional smoother -> drift monitor -> journal chain before it is emitted.
/// `EdgeRuntime` owns one; `platform::EdgeFleet` owns one per session.
///
/// Each frame is preprocessed as it arrives: the session feeds it to its
/// one `preprocess::WindowFeaturizer`, so the frame that completes a window
/// only finishes the features (`FinishWindow`). The session never
/// classifies: its owner passes the current pipeline with every frame,
/// classifies the finished feature row with its own model and hands the raw
/// prediction to `Emit`. Single-owner; it takes no lock.
class StreamSession {
 public:
  /// Process-wide counters bumped with the stats; null ones are skipped.
  struct Counters {
    obs::Counter* frames = nullptr;
    obs::Counter* windows = nullptr;
    obs::Counter* predictions = nullptr;
    obs::Counter* rejections = nullptr;  ///< raw predictions that are Unknown
    obs::Counter* smoother_overrides = nullptr;
  };

  explicit StreamSession(Counters counters) : counters_(counters) {}

  /// Counts a frame that bypasses the stream (a recording capture).
  void CountFrame();

  /// Counts one frame, buffers it and pushes it into the window's
  /// featurizer; returns true when it completes a window, which
  /// `FinishWindow` then turns into features. Windows start `seg.stride`
  /// frames apart (`seg` is `pipeline`'s segmentation); with stride > window
  /// the frames between them are dropped, with stride < window the next
  /// window's featurizer is fed the retained frames on the next call.
  bool PushFrame(const sensors::Frame& frame,
                 const preprocess::Pipeline& pipeline);

  /// After `PushFrame` returned true, once: the completed window's
  /// normalised feature row (1 x pipeline.feature_dim()), valid until the
  /// next call. `pipeline` must be the one the window's frames were pushed
  /// with.
  Result<const Matrix*> FinishWindow(const preprocess::Pipeline& pipeline);

  /// Counts the raw prediction of the last window, runs it through the
  /// smoother, drift monitor and journal, and returns (and keeps as
  /// `last_prediction`) what the stream emits.
  NamedPrediction Emit(NamedPrediction pred);

  /// Counts a window from outside the frame stream (open-loop admission) and
  /// its prediction, if any, which becomes `last_prediction`. It has no
  /// place in the stream, so the smoother, drift monitor and journal skip it.
  void EmitUnordered(const NamedPrediction* prediction);

  /// Drops the stream context — buffered frames and the window featurized
  /// so far, a pending gapped-stride skip, smoother votes, drift evidence —
  /// so nothing straddles a mode switch or a model swap. The journal, a
  /// user-facing ledger, survives.
  void ResetContext();

  void EnableSmoothing(PredictionSmoother::Options options) {
    smoother_ = std::make_unique<PredictionSmoother>(options);
  }
  void DisableSmoothing() { smoother_.reset(); }

  /// `baseline_distance` 0 alarms on confidence only.
  void EnableDriftMonitoring(DriftMonitor::Options options,
                             double baseline_distance) {
    drift_monitor_ = std::make_unique<DriftMonitor>(options);
    drift_monitor_->SetBaselineDistance(baseline_distance);
  }
  void DisableDriftMonitoring() { drift_monitor_.reset(); }
  /// True while the armed drift monitor recommends calibration.
  bool Drifting() const {
    return drift_monitor_ != nullptr && drift_monitor_->drifting();
  }

  /// Each journal entry covers one stride of `seg` at `sample_rate_hz`.
  void EnableJournal(const preprocess::SegmentationConfig& seg,
                     double sample_rate_hz) {
    journal_ = std::make_unique<ActivityJournal>(
        sample_rate_hz > 0 ? static_cast<double>(seg.stride) / sample_rate_hz
                           : 1.0);
  }
  /// The ledger, or nullptr if not enabled.
  const ActivityJournal* journal() const { return journal_.get(); }

  const StreamStats& stats() const { return stats_; }
  const std::optional<NamedPrediction>& last_prediction() const {
    return last_prediction_;
  }

 private:
  void CountPrediction(const NamedPrediction& prediction);
  /// Starts the window after a completed one: advances the buffer by the
  /// stride and replays the frames it keeps into the featurizer.
  void NextWindow(const preprocess::Pipeline& pipeline);
  const float* RawRows() const { return buffer_.front().data(); }

  Counters counters_;
  /// The current window's frames, oldest first, in one contiguous block of
  /// at most a window: once filled it is only shifted, never reallocated.
  /// The featurizer reads its raw rows from here.
  std::vector<sensors::Frame> buffer_;
  preprocess::WindowFeaturizer featurizer_;  ///< the current window's
  Matrix features_;  ///< the finished window's feature row, reused
  bool window_complete_ = false;  ///< buffer_ holds a whole window
  size_t pending_skip_ = 0;  ///< frames to drop (stride > window configs)
  std::unique_ptr<PredictionSmoother> smoother_;
  std::unique_ptr<DriftMonitor> drift_monitor_;
  std::unique_ptr<ActivityJournal> journal_;
  std::optional<NamedPrediction> last_prediction_;
  StreamStats stats_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_STREAM_SESSION_H_
