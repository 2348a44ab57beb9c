#include "core/activity_journal.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace magneto::core {

ActivityJournal::ActivityJournal(double window_seconds)
    : window_seconds_(window_seconds) {
  MAGNETO_CHECK(window_seconds > 0.0);
}

void ActivityJournal::Record(const NamedPrediction& prediction) {
  const sensors::ActivityId id = prediction.prediction.activity;
  seconds_[id] += window_seconds_;
  names_[id] = prediction.name;
  // The open bout is the newest slot: the one before `head_` once full.
  Bout* open = ring_.empty()
                   ? nullptr
                   : &ring_[(head_ + ring_.size() - 1) % ring_.size()];
  if (open != nullptr && open->activity == id) {
    open->duration_s += window_seconds_;
  } else {
    const Bout bout{id, elapsed_s_, window_seconds_};
    if (ring_.size() < kMaxBouts) {
      ring_.push_back(bout);
    } else {
      // Full: the new bout takes the oldest one's slot.
      ring_[head_] = bout;
      head_ = (head_ + 1) % kMaxBouts;
    }
    ++bout_counts_[id];
  }
  elapsed_s_ += window_seconds_;
}

std::vector<ActivityBout> ActivityJournal::bouts() const {
  std::vector<ActivityBout> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Bout& b = ring_[(head_ + i) % ring_.size()];
    out.push_back({b.activity, names_.at(b.activity), b.start_s, b.duration_s});
  }
  return out;
}

double ActivityJournal::TotalSeconds(sensors::ActivityId activity) const {
  auto it = seconds_.find(activity);
  return it == seconds_.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, double>> ActivityJournal::Totals() const {
  std::vector<std::pair<std::string, double>> totals;
  totals.reserve(seconds_.size());
  for (const auto& [id, secs] : seconds_) {
    totals.emplace_back(names_.at(id), secs);
  }
  std::sort(totals.begin(), totals.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return totals;
}

std::string ActivityJournal::Summary() const {
  std::ostringstream os;
  os << "activity journal (" << std::fixed << std::setprecision(1)
     << elapsed_s_ / 60.0 << " min total):\n";
  for (const auto& [id, secs] : seconds_) {
    const double share = elapsed_s_ > 0.0 ? 100.0 * secs / elapsed_s_ : 0.0;
    os << "  " << std::left << std::setw(14) << names_.at(id) << std::right
       << std::setw(7) << std::setprecision(1) << secs / 60.0 << " min  "
       << std::setw(5) << share << "%  " << bout_counts_.at(id) << " bout(s)\n";
  }
  return os.str();
}

void ActivityJournal::Reset() {
  elapsed_s_ = 0.0;
  seconds_.clear();
  names_.clear();
  bout_counts_.clear();
  ring_.clear();
  head_ = 0;
}

}  // namespace magneto::core
