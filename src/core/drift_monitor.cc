#include "core/drift_monitor.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace magneto::core {

namespace {

struct DriftMetrics {
  obs::Counter* observations =
      obs::Registry::Global().GetCounter("drift.observations");
  // Rising edges only: a long drifting stretch counts as one trigger.
  obs::Counter* triggers = obs::Registry::Global().GetCounter("drift.triggers");
};

DriftMetrics& Metrics() {
  static DriftMetrics* metrics = new DriftMetrics;
  return *metrics;
}

}  // namespace

DriftMonitor::DriftMonitor(Options options) : options_(options) {
  MAGNETO_CHECK(options_.window >= 1);
}

void DriftMonitor::SetBaselineDistance(double distance) {
  baseline_distance_ = distance;
}

double DriftMonitor::rolling_confidence() const {
  if (history_.empty()) return 1.0;
  double total = 0.0;
  for (const Prediction& p : history_) total += p.confidence;
  return total / static_cast<double>(history_.size());
}

double DriftMonitor::rolling_distance() const {
  if (history_.empty()) return 0.0;
  double total = 0.0;
  for (const Prediction& p : history_) total += p.distance;
  return total / static_cast<double>(history_.size());
}

bool DriftMonitor::Observe(const Prediction& prediction) {
  Metrics().observations->Increment();
  // A shifted vector rather than a deque: it stops allocating once full.
  if (history_.size() == options_.window) history_.erase(history_.begin());
  history_.push_back(prediction);
  if (history_.size() < options_.window) {
    drifting_ = false;  // not enough evidence yet
    return false;
  }
  const bool low_confidence = rolling_confidence() < options_.min_confidence;
  const bool far_from_prototypes =
      baseline_distance_ > 0.0 &&
      rolling_distance() > baseline_distance_ * options_.distance_factor;
  const bool was_drifting = drifting_;
  drifting_ = low_confidence || far_from_prototypes;
  if (drifting_ && !was_drifting) Metrics().triggers->Increment();
  return drifting_;
}

void DriftMonitor::Reset() {
  history_.clear();
  drifting_ = false;
}

}  // namespace magneto::core
