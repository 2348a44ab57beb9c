#ifndef MAGNETO_CORE_SMOOTHER_H_
#define MAGNETO_CORE_SMOOTHER_H_

#include <cstdint>
#include <vector>

#include "core/edge_model.h"

namespace magneto::core {

/// Temporal post-processing of the per-window prediction stream — the
/// "post-processing and result interpretation" stage the paper's intro names
/// as part of a complete HAR pipeline.
///
/// A single noisy window (a pothole during Drive, one arm swing during Walk)
/// should not flip the displayed activity. The smoother majority-votes over
/// the last `window` predictions, weighting each vote by its confidence, and
/// only switches its output once the new activity actually wins the window.
/// Latency cost: a switch is confirmed after about `window/2` windows.
///
/// Votes expire by *time*, not only by displacement: a prediction stops
/// voting once it is more than `window` pushes old, even when the pushes in
/// between were rejected by `min_confidence` and so never entered the
/// history themselves. Without that, a burst of low-confidence windows after
/// an activity change would leave the pre-change winner in the history
/// indefinitely and the smoother would keep reporting it.
///
/// Not thread-safe; each stream owns its own smoother (see
/// core::StreamSession). The history and the vote table are
/// plain vectors that stop growing once the history has been full, so a
/// warmed smoother pushes without a heap allocation.
class PredictionSmoother {
 public:
  struct Options {
    size_t window = 5;          ///< vote history length, >= 1
    double min_confidence = 0.0;///< raw predictions below this don't vote
  };

  explicit PredictionSmoother(Options options);

  /// Feeds one raw prediction, returns the smoothed one. The smoothed
  /// confidence is the winning class's share of the vote mass.
  NamedPrediction Push(const NamedPrediction& raw);

  /// Clears history (call on mode switches or after a model update).
  void Reset();

  size_t history_size() const { return history_.size(); }

 private:
  struct Entry {
    NamedPrediction prediction;
    uint64_t tick;  ///< value of ticks_ when the entry was accepted
  };
  /// One class's confidence mass over the history.
  struct Vote {
    sensors::ActivityId activity;
    double mass;
  };

  Options options_;
  std::vector<Entry> history_;  ///< oldest first, at most `window` entries
  std::vector<Vote> votes_;     ///< per-push tally, ascending activity id
  uint64_t ticks_ = 0;  ///< total pushes, accepted or rejected
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_SMOOTHER_H_
