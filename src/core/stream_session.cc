#include "core/stream_session.h"

#include <algorithm>
#include <cstring>

namespace magneto::core {

namespace {

void Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

}  // namespace

void StreamSession::CountFrame() {
  ++stats_.frames;
  Bump(counters_.frames);
}

const Matrix* StreamSession::PushFrame(
    const sensors::Frame& frame, const preprocess::SegmentationConfig& seg) {
  static_assert(sizeof(sensors::Frame) == sensors::kNumChannels * sizeof(float),
                "frames must pack into matrix rows");
  CountFrame();
  if (pending_skip_ > 0) {
    --pending_skip_;
    return nullptr;
  }
  buffer_.push_back(frame);
  if (buffer_.size() < seg.window_samples) return nullptr;
  window_.ResetForOverwrite(seg.window_samples, sensors::kNumChannels);
  std::memcpy(window_.data(), buffer_.data(),
              seg.window_samples * sizeof(sensors::Frame));
  // Advance by the stride. With stride > window (gapped sampling) the
  // surplus frames have not arrived yet; remember how many to discard.
  const size_t advance = std::min(seg.stride, buffer_.size());
  buffer_.erase(buffer_.begin(), buffer_.begin() + advance);
  pending_skip_ = seg.stride - advance;
  ++stats_.windows;
  Bump(counters_.windows);
  return &window_;
}

void StreamSession::CountPrediction(const NamedPrediction& prediction) {
  ++stats_.predictions;
  Bump(counters_.predictions);
  if (prediction.prediction.is_unknown()) Bump(counters_.rejections);
}

NamedPrediction StreamSession::Emit(NamedPrediction pred) {
  CountPrediction(pred);
  if (smoother_ != nullptr) {
    const sensors::ActivityId raw_activity = pred.prediction.activity;
    pred = smoother_->Push(pred);
    if (pred.prediction.activity != raw_activity) {
      Bump(counters_.smoother_overrides);
    }
  }
  if (drift_monitor_ != nullptr) drift_monitor_->Observe(pred.prediction);
  if (journal_ != nullptr) journal_->Record(pred);
  last_prediction_ = pred;
  return pred;
}

void StreamSession::EmitUnordered(const NamedPrediction* prediction) {
  ++stats_.windows;
  Bump(counters_.windows);
  if (prediction == nullptr) return;
  CountPrediction(*prediction);
  last_prediction_ = *prediction;
}

void StreamSession::ResetContext() {
  buffer_.clear();
  pending_skip_ = 0;
  if (smoother_ != nullptr) smoother_->Reset();
  if (drift_monitor_ != nullptr) drift_monitor_->Reset();
}

}  // namespace magneto::core
