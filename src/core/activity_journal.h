#ifndef MAGNETO_CORE_ACTIVITY_JOURNAL_H_
#define MAGNETO_CORE_ACTIVITY_JOURNAL_H_

#include <map>
#include <string>
#include <vector>

#include "core/edge_model.h"

namespace magneto::core {

/// One contiguous bout of a single activity.
struct ActivityBout {
  sensors::ActivityId activity = kUnknownActivity;
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
};

/// The health-app ledger the paper's introduction motivates ("health care,
/// fitness or assistant applications"): accumulates the prediction stream
/// into per-activity totals and a bout timeline, entirely on-device.
///
/// Windows arrive at a fixed cadence (one per `window_seconds`); consecutive
/// windows of the same activity merge into one bout. Brief single-window
/// blips still count toward totals — feed *smoothed* predictions if the
/// bouts should ignore them.
///
/// Totals and per-activity bout counts cover the whole stream; the timeline
/// keeps only the latest `kMaxBouts` bouts in a ring, so a journal that runs
/// for days holds bounded memory and stops allocating once the ring is full.
class ActivityJournal {
 public:
  /// Bouts the timeline retains.
  static constexpr size_t kMaxBouts = 1024;

  explicit ActivityJournal(double window_seconds = 1.0);

  /// Records one window's prediction.
  void Record(const NamedPrediction& prediction);

  /// Seconds attributed to `activity` so far.
  double TotalSeconds(sensors::ActivityId activity) const;

  /// Totals for every activity seen, descending by time.
  std::vector<std::pair<std::string, double>> Totals() const;

  /// The retained bouts, oldest first (the last bout is still open).
  std::vector<ActivityBout> bouts() const;

  double elapsed_seconds() const { return elapsed_s_; }

  /// Multi-line "daily summary" (name, minutes, percent, bout count).
  std::string Summary() const;

  void Reset();

 private:
  double window_seconds_;
  double elapsed_s_ = 0.0;
  std::map<sensors::ActivityId, double> seconds_;
  std::map<sensors::ActivityId, std::string> names_;
  std::map<sensors::ActivityId, size_t> bout_counts_;

  /// A timeline slot; the name is looked up in `names_` when read, so
  /// overwriting a slot never touches the heap.
  struct Bout {
    sensors::ActivityId activity = kUnknownActivity;
    double start_s = 0.0;
    double duration_s = 0.0;
  };
  /// Ring of at most `kMaxBouts`; once full, `head_` is the oldest slot.
  std::vector<Bout> ring_;
  size_t head_ = 0;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_ACTIVITY_JOURNAL_H_
