#include "core/edge_runtime.h"

#include <filesystem>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto::core {

namespace {

struct EdgeMetrics {
  obs::Counter* frames = obs::Registry::Global().GetCounter("edge.frames");
  obs::Counter* windows = obs::Registry::Global().GetCounter("edge.windows");
  obs::Counter* predictions =
      obs::Registry::Global().GetCounter("edge.predictions");
  obs::Counter* rejections =
      obs::Registry::Global().GetCounter("edge.rejections");
  obs::Counter* smoother_overrides =
      obs::Registry::Global().GetCounter("edge.smoother_overrides");
  obs::Counter* updates = obs::Registry::Global().GetCounter("edge.updates");
  obs::Histogram* classify_us =
      obs::Registry::Global().GetHistogram("edge.classify_us");
};

EdgeMetrics& Metrics() {
  static EdgeMetrics* metrics = new EdgeMetrics;
  return *metrics;
}

}  // namespace

EdgeRuntime::EdgeRuntime(EdgeModel model, SupportSet support,
                         IncrementalOptions options, double sample_rate_hz)
    : model_(std::move(model)),
      support_(std::move(support)),
      sample_rate_hz_(sample_rate_hz),
      updater_(std::make_unique<AsyncUpdater>(options)),
      session_({Metrics().frames, Metrics().windows, Metrics().predictions,
                Metrics().rejections, Metrics().smoother_overrides}) {}

Result<std::optional<NamedPrediction>> EdgeRuntime::PushFrame(
    const sensors::Frame& frame) {
  if (mode_ == RuntimeMode::kRecording) {
    session_.CountFrame();
    capture_buffer_.push_back(frame);
    return std::optional<NamedPrediction>{};
  }
  const preprocess::Pipeline& pipeline = model_.pipeline();
  if (!session_.PushFrame(frame, pipeline)) {
    return std::optional<NamedPrediction>{};
  }
  obs::TraceSpan span("EdgeRuntime::Classify");
  obs::ScopedTimer classify_timer(Metrics().classify_us);
  MAGNETO_ASSIGN_OR_RETURN(const Matrix* features,
                           session_.FinishWindow(pipeline));
  MAGNETO_ASSIGN_OR_RETURN(NamedPrediction pred,
                           model_.InferFeatureRow(*features));
  return std::optional<NamedPrediction>(session_.Emit(std::move(pred)));
}

Status EdgeRuntime::StartRecording() {
  if (mode_ == RuntimeMode::kRecording) {
    return Status::FailedPrecondition("already recording");
  }
  mode_ = RuntimeMode::kRecording;
  capture_buffer_.clear();
  session_.ResetContext();  // stale inference context would straddle modes
  return Status::Ok();
}

sensors::Recording EdgeRuntime::FinishCapture() {
  sensors::Recording rec;
  rec.sample_rate_hz = sample_rate_hz_;
  rec.samples.Reset(capture_buffer_.size(), sensors::kNumChannels);
  for (size_t r = 0; r < capture_buffer_.size(); ++r) {
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      rec.samples.At(r, c) = capture_buffer_[r][c];
    }
  }
  capture_buffer_.clear();
  mode_ = RuntimeMode::kInference;
  return rec;
}

Result<UpdateReport> EdgeRuntime::FinishRecordingAndLearn(
    const std::string& name) {
  MAGNETO_RETURN_IF_ERROR(FinishRecordingAndLearnAsync(name));
  return CommitUpdate();
}

Result<UpdateReport> EdgeRuntime::FinishRecordingAndCalibrate(
    const std::string& name) {
  MAGNETO_RETURN_IF_ERROR(FinishRecordingAndCalibrateAsync(name));
  return CommitUpdate();
}

void EdgeRuntime::EnableAutoCheckpoint(std::string path) {
  auto_checkpoint_path_ = std::move(path);
}

void EdgeRuntime::DisableAutoCheckpoint() { auto_checkpoint_path_.clear(); }

void EdgeRuntime::CancelRecording() {
  capture_buffer_.clear();
  mode_ = RuntimeMode::kInference;
}

Status EdgeRuntime::CheckUpdatable() const {
  if (mode_ != RuntimeMode::kRecording) {
    return Status::FailedPrecondition("not recording");
  }
  if (UpdatePending()) {
    return Status::FailedPrecondition("an update is already in flight");
  }
  return CheckTrainable(model_.backbone());
}

Status EdgeRuntime::FinishRecordingAndLearnAsync(const std::string& name) {
  MAGNETO_RETURN_IF_ERROR(CheckUpdatable());
  sensors::Recording rec = FinishCapture();
  return updater_->StartLearn(model_, support_, name, {std::move(rec)});
}

Status EdgeRuntime::FinishRecordingAndCalibrateAsync(const std::string& name) {
  MAGNETO_RETURN_IF_ERROR(CheckUpdatable());
  MAGNETO_ASSIGN_OR_RETURN(sensors::ActivityId id,
                           model_.registry().IdOf(name));
  sensors::Recording rec = FinishCapture();
  return updater_->StartCalibrate(model_, support_, id, {std::move(rec)});
}

bool EdgeRuntime::UpdatePending() const { return updater_->busy(); }

bool EdgeRuntime::UpdateReady() const { return updater_->ready(); }

Result<UpdateReport> EdgeRuntime::CommitUpdate() {
  MAGNETO_ASSIGN_OR_RETURN(AsyncUpdater::Outcome outcome, updater_->Take());
  // Atomic from the caller's perspective: between PushFrame calls.
  model_ = std::move(outcome.model);
  support_ = std::move(outcome.support);
  session_.ResetContext();
  ++updates_;
  Metrics().updates->Increment();
  if (!auto_checkpoint_path_.empty()) {
    // Only a successful update reaches this point, so what is persisted is
    // exactly the post-update model. A rolled-back update never does, and
    // the previous checkpoint (the pre-update model) stays authoritative.
    Status saved = SaveCheckpoint(auto_checkpoint_path_);
    if (!saved.ok()) {
      MAGNETO_LOG(Warning) << "auto-checkpoint failed: " << saved.ToString();
    }
  }
  return std::move(outcome.report);
}

ModelBundle EdgeRuntime::ToBundle() const {
  return ModelBundle(model_, support_);
}

std::string EdgeRuntime::LastKnownGoodPath(const std::string& path) {
  return path + ".lkg";
}

Status EdgeRuntime::SaveCheckpoint(const std::string& path) const {
  // Rotate the current checkpoint (whatever its health — it was the last
  // state this code accepted) to the fallback slot, then atomically write
  // the new one. A crash between the two steps leaves the .lkg loadable; a
  // crash mid-write leaves the temp behind and the rotation intact.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, LastKnownGoodPath(path), ec);
    if (ec) {
      return Status::IoError("checkpoint rotation failed: " + path + ": " +
                             ec.message());
    }
  }
  MAGNETO_RETURN_IF_ERROR(ToBundle().SaveToFile(path));
  static obs::Counter* const saves =
      obs::Registry::Global().GetCounter("edge.checkpoint.saves");
  saves->Increment();
  return Status::Ok();
}

Result<EdgeRuntime> EdgeRuntime::FromCheckpoint(const std::string& path,
                                                IncrementalOptions options,
                                                double sample_rate_hz) {
  bool used_fallback = false;
  MAGNETO_ASSIGN_OR_RETURN(
      ModelBundle bundle,
      ModelBundle::LoadFromFileWithFallback(path, LastKnownGoodPath(path),
                                            &used_fallback));
  if (used_fallback) {
    MAGNETO_LOG(Warning) << "checkpoint " << path
                         << " unusable; restored last-known-good "
                         << LastKnownGoodPath(path);
  }
  SupportSet support = std::move(bundle.support);
  return EdgeRuntime(std::move(bundle).ToEdgeModel(), std::move(support),
                     options, sample_rate_hz);
}

double EdgeRuntime::recorded_seconds() const {
  return sample_rate_hz_ > 0
             ? static_cast<double>(capture_buffer_.size()) / sample_rate_hz_
             : 0.0;
}

}  // namespace magneto::core
