#include "core/stream_session.h"

#include <algorithm>

#include "common/logging.h"

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

bool StreamSession::PushFrame(const sensors::Frame& frame,
                              const preprocess::Pipeline& pipeline) {
  static_assert(sizeof(sensors::Frame) == sensors::kNumChannels * sizeof(float),
                "frames must pack into matrix rows");
  CountFrame();
  if (window_complete_) NextWindow(pipeline);
  if (pending_skip_ > 0) {
    --pending_skip_;
    return false;
  }
  const size_t window = pipeline.config().segmentation.window_samples;
  if (buffer_.empty()) pipeline.BeginWindow(window, &featurizer_);
  buffer_.push_back(frame);
  featurizer_.Push(RawRows());
  if (buffer_.size() < window) return false;
  window_complete_ = true;
  ++stats_.windows;
  Bump(counters_.windows);
  return true;
}

Result<const Matrix*> StreamSession::FinishWindow(
    const preprocess::Pipeline& pipeline) {
  MAGNETO_CHECK(window_complete_ && featurizer_.pushed() == buffer_.size());
  MAGNETO_RETURN_IF_ERROR(
      pipeline.FinishWindow(RawRows(), &featurizer_, &features_));
  return &features_;
}

void StreamSession::NextWindow(const preprocess::Pipeline& pipeline) {
  window_complete_ = false;
  // Advance by the stride. With stride > window (gapped sampling) the
  // surplus frames have not arrived yet; remember how many to discard.
  const size_t stride = pipeline.config().segmentation.stride;
  const size_t advance = std::min(stride, buffer_.size());
  buffer_.erase(buffer_.begin(), buffer_.begin() + advance);
  pending_skip_ = stride - advance;
  if (buffer_.empty()) return;
  pipeline.BeginWindow(pipeline.config().segmentation.window_samples,
                       &featurizer_);
  while (featurizer_.pushed() < buffer_.size()) featurizer_.Push(RawRows());
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
  window_complete_ = false;
  pending_skip_ = 0;
  if (smoother_ != nullptr) smoother_->Reset();
  if (drift_monitor_ != nullptr) drift_monitor_->Reset();
}

}  // namespace magneto::core
