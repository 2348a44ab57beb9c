#ifndef MAGNETO_CORE_DRIFT_MONITOR_H_
#define MAGNETO_CORE_DRIFT_MONITOR_H_

#include <vector>

#include "core/edge_model.h"

namespace magneto::core {

/// Watches the live prediction stream for signs that the model no longer
/// fits the user — the trigger for the paper's calibration story (§3.3):
/// "calibrating an activity to more closely align with the user's behavior
/// is a focal point of interest".
///
/// Two rolling signals over the last `window` predictions:
///   * mean confidence — a user whose style drifted produces chronically
///     borderline NCM margins;
///   * mean nearest-prototype distance relative to a healthy baseline.
///
/// When either degrades past its threshold the monitor recommends
/// calibration. Purely advisory: the app decides whether to prompt the user.
class DriftMonitor {
 public:
  struct Options {
    size_t window = 30;             ///< predictions per rolling estimate
    double min_confidence = 0.55;   ///< alarm below this rolling mean
    /// Alarm when rolling mean distance exceeds baseline * this factor.
    double distance_factor = 1.8;
  };

  explicit DriftMonitor(Options options);

  /// Sets the healthy-distance baseline (e.g. mean nearest-prototype
  /// distance measured right after provisioning or a calibration).
  void SetBaselineDistance(double distance);
  double baseline_distance() const { return baseline_distance_; }

  /// Feeds one prediction; returns true while the monitor recommends
  /// calibration (requires a full window of evidence).
  bool Observe(const Prediction& prediction);

  bool drifting() const { return drifting_; }
  double rolling_confidence() const;
  double rolling_distance() const;

  /// Clears the evidence (call after a calibration/update).
  void Reset();

 private:
  Options options_;
  double baseline_distance_ = 0.0;
  std::vector<Prediction> history_;  ///< oldest first, at most `window`
  bool drifting_ = false;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_DRIFT_MONITOR_H_
