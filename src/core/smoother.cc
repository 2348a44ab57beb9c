#include "core/smoother.h"

#include <algorithm>

#include "common/logging.h"

namespace magneto::core {

PredictionSmoother::PredictionSmoother(Options options) : options_(options) {
  MAGNETO_CHECK(options_.window >= 1);
}

NamedPrediction PredictionSmoother::Push(const NamedPrediction& raw) {
  ++ticks_;
  if (raw.prediction.confidence >= options_.min_confidence) {
    if (history_.size() == options_.window) history_.erase(history_.begin());
    history_.push_back({raw, ticks_});
  }
  // Age out votes regardless of whether this push was accepted: an entry may
  // vote for the `window` pushes that follow it, after which it expires even
  // if rejected pushes kept it from being displaced. This is what lets the
  // smoother recover from an activity change that arrives as a run of
  // low-confidence windows instead of reporting the stale winner forever.
  auto live = history_.begin();
  while (live != history_.end() && ticks_ - live->tick > options_.window) {
    ++live;
  }
  history_.erase(history_.begin(), live);
  if (history_.empty()) return raw;

  // Confidence-weighted vote over the history. Each class's mass adds its
  // votes oldest first; the table stays sorted by id, so the strict `>` scan
  // below hands ties to the smallest id.
  votes_.clear();
  double total = 0.0;
  for (const Entry& e : history_) {
    const Prediction& p = e.prediction.prediction;
    auto it = std::lower_bound(
        votes_.begin(), votes_.end(), p.activity,
        [](const Vote& v, sensors::ActivityId id) { return v.activity < id; });
    if (it == votes_.end() || it->activity != p.activity) {
      it = votes_.insert(it, Vote{p.activity, 0.0});
    }
    it->mass += p.confidence;
    total += p.confidence;
  }
  sensors::ActivityId winner = raw.prediction.activity;
  double best = -1.0;
  for (const Vote& v : votes_) {
    if (v.mass > best) {
      best = v.mass;
      winner = v.activity;
    }
  }

  // Report the most recent raw prediction of the winning class (name and
  // distance stay meaningful), with the smoothed confidence.
  NamedPrediction out = raw;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (it->prediction.prediction.activity == winner) {
      out = it->prediction;
      break;
    }
  }
  out.prediction.confidence = total > 0.0 ? best / total : 0.0;
  return out;
}

void PredictionSmoother::Reset() {
  history_.clear();
  ticks_ = 0;
}

}  // namespace magneto::core
