#include "preprocess/pipeline.h"

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto::preprocess {

namespace {

struct PipelineMetrics {
  obs::Counter* recordings =
      obs::Registry::Global().GetCounter("pipeline.recordings");
  obs::Counter* windows =
      obs::Registry::Global().GetCounter("pipeline.windows");
  obs::Counter* stream_windows =
      obs::Registry::Global().GetCounter("pipeline.stream_windows");
  obs::Histogram* batch_ms = obs::Registry::Global().GetHistogram(
      "pipeline.batch_ms", obs::LatencyBucketsMs());
  obs::Histogram* window_us =
      obs::Registry::Global().GetHistogram("pipeline.window_us");
};

PipelineMetrics& Metrics() {
  static PipelineMetrics* metrics = new PipelineMetrics;
  return *metrics;
}

/// Fails unless `samples` holds one column per sensor channel.
Status CheckChannels(const Matrix& samples) {
  if (samples.cols() == sensors::kNumChannels) return Status::Ok();
  return Status::InvalidArgument(
      "expected " + std::to_string(sensors::kNumChannels) +
      " channels, got " + std::to_string(samples.cols()));
}

/// The wire's feature-family byte and sample rate. The 80 statistical
/// features are the only family and read no rate, but every bundle carries
/// both fields, so a reader that accepts only these values keeps
/// save -> load -> save byte-identical.
constexpr uint8_t kFeaturesByte = 0;
constexpr double kSampleRateHz = 120.0;

/// Appends the first raw row of each window of `recording` to `windows`:
/// starts 0, stride, 2·stride, … while a whole window fits.
Status AppendWindows(const sensors::Recording& recording,
                     const SegmentationConfig& seg,
                     std::vector<const float*>* windows) {
  if (seg.window_samples == 0 || seg.stride == 0) {
    return Status::InvalidArgument("window_samples and stride must be > 0");
  }
  const Matrix& samples = recording.samples;
  if (samples.rows() < seg.window_samples) return Status::Ok();
  MAGNETO_RETURN_IF_ERROR(CheckChannels(samples));
  for (size_t start = 0; start + seg.window_samples <= samples.rows();
       start += seg.stride) {
    windows->push_back(samples.RowPtr(start));
  }
  return Status::Ok();
}

}  // namespace

void PipelineConfig::Serialize(BinaryWriter* writer) const {
  denoise.Serialize(writer);
  segmentation.Serialize(writer);
  writer->WriteU8(static_cast<uint8_t>(normalization));
  writer->WriteU8(kFeaturesByte);
  writer->WriteF64(kSampleRateHz);
}

Result<PipelineConfig> PipelineConfig::Deserialize(BinaryReader* reader) {
  PipelineConfig config;
  MAGNETO_ASSIGN_OR_RETURN(config.denoise, DenoiseConfig::Deserialize(reader));
  MAGNETO_ASSIGN_OR_RETURN(config.segmentation,
                           SegmentationConfig::Deserialize(reader));
  MAGNETO_ASSIGN_OR_RETURN(uint8_t norm, reader->ReadU8());
  if (norm > static_cast<uint8_t>(NormalizationMethod::kMinMax)) {
    return Status::Corruption("bad normalization method: " +
                              std::to_string(norm));
  }
  config.normalization = static_cast<NormalizationMethod>(norm);
  MAGNETO_ASSIGN_OR_RETURN(uint8_t features, reader->ReadU8());
  if (features != kFeaturesByte) {
    return Status::Corruption("bad feature family: " +
                              std::to_string(features));
  }
  MAGNETO_ASSIGN_OR_RETURN(double rate, reader->ReadF64());
  if (rate != kSampleRateHz) {
    return Status::Corruption("bad pipeline sample rate: " +
                              std::to_string(rate));
  }
  return config;
}

Result<Matrix> Pipeline::WindowRows(const std::vector<const float*>& windows,
                                    bool normalize) const {
  if (normalize && !fitted()) {
    return Status::FailedPrecondition("pipeline normalizer not fitted");
  }
  obs::TraceSpan span("Pipeline::WindowRows");
  obs::ScopedTimer timer(Metrics().batch_ms, /*scale=*/1e3);
  Metrics().windows->Increment(windows.size());
  const size_t n = config_.segmentation.window_samples;
  Matrix rows(windows.size(), feature_dim());
  std::vector<Status> status(windows.size(), Status::Ok());
  // A featurizer per chunk, so no two lanes share one; a window's bits do
  // not depend on what the featurizer held before it.
  ParallelFor(0, windows.size(), 1, [&](size_t lo, size_t hi) {
    WindowFeaturizer featurizer;
    for (size_t i = lo; i < hi; ++i) {
      BeginWindow(n, &featurizer);
      for (size_t r = 0; r < n; ++r) featurizer.Push(windows[i]);
      float* row = rows.RowPtr(i);
      status[i] = featurizer.Finish(windows[i], row);
      if (status[i].ok() && normalize) {
        status[i] = normalizer_.Apply(row, rows.cols());
      }
    }
  });
  // The first failing window in index order, as a serial loop reports.
  for (const Status& st : status) MAGNETO_RETURN_IF_ERROR(st);
  return rows;
}

Result<sensors::FeatureDataset> Pipeline::LabeledRows(
    const std::vector<sensors::LabeledRecording>& recordings,
    bool normalize) const {
  Metrics().recordings->Increment(recordings.size());
  std::vector<const float*> windows;
  std::vector<sensors::ActivityId> labels;
  for (const sensors::LabeledRecording& labeled : recordings) {
    MAGNETO_RETURN_IF_ERROR(
        AppendWindows(labeled.recording, config_.segmentation, &windows));
    labels.resize(windows.size(), labeled.label);
  }
  MAGNETO_ASSIGN_OR_RETURN(Matrix rows, WindowRows(windows, normalize));
  return sensors::FeatureDataset(std::move(rows), std::move(labels));
}

Result<sensors::FeatureDataset> Pipeline::Fit(
    const std::vector<sensors::LabeledRecording>& recordings) {
  obs::TraceSpan span("Pipeline::Fit");
  MAGNETO_ASSIGN_OR_RETURN(sensors::FeatureDataset raw,
                           LabeledRows(recordings, /*normalize=*/false));
  if (raw.empty()) {
    return Status::InvalidArgument(
        "no complete windows in the fitting recordings");
  }
  MAGNETO_ASSIGN_OR_RETURN(normalizer_,
                           Normalizer::Fit(config_.normalization, raw));
  return normalizer_.ApplyToDataset(raw);
}

void Pipeline::BeginWindow(size_t n, WindowFeaturizer* featurizer) const {
  featurizer->Begin(config_.denoise, n);
}

Status Pipeline::FinishWindow(const float* raw, WindowFeaturizer* featurizer,
                              Matrix* out) const {
  if (!fitted()) {
    return Status::FailedPrecondition("pipeline normalizer not fitted");
  }
  obs::TraceSpan span("Pipeline::FinishWindow");
  obs::ScopedTimer timer(Metrics().window_us);
  Metrics().stream_windows->Increment();
  out->ResetForOverwrite(1, feature_dim());
  float* row = out->RowPtr(0);
  MAGNETO_RETURN_IF_ERROR(featurizer->Finish(raw, row));
  return normalizer_.Apply(row, out->cols());
}

Status Pipeline::ProcessWindow(const Matrix& window,
                               WindowFeaturizer* featurizer,
                               Matrix* out) const {
  MAGNETO_RETURN_IF_ERROR(CheckChannels(window));
  BeginWindow(window.rows(), featurizer);
  for (size_t i = 0; i < window.rows(); ++i) featurizer->Push(window.data());
  return FinishWindow(window.data(), featurizer, out);
}

Result<std::vector<float>> Pipeline::ProcessWindow(const Matrix& window) const {
  WindowFeaturizer featurizer;
  Matrix features;
  MAGNETO_RETURN_IF_ERROR(ProcessWindow(window, &featurizer, &features));
  return std::vector<float>(features.storage().begin(),
                            features.storage().end());
}

Result<std::vector<std::vector<float>>> Pipeline::Process(
    const sensors::Recording& recording) const {
  std::vector<const float*> windows;
  MAGNETO_RETURN_IF_ERROR(
      AppendWindows(recording, config_.segmentation, &windows));
  MAGNETO_ASSIGN_OR_RETURN(Matrix rows,
                           WindowRows(windows, /*normalize=*/true));
  std::vector<std::vector<float>> out(rows.rows());
  for (size_t i = 0; i < rows.rows(); ++i) {
    out[i].assign(rows.RowPtr(i), rows.RowPtr(i) + rows.cols());
  }
  return out;
}

Result<sensors::FeatureDataset> Pipeline::ProcessLabeled(
    const std::vector<sensors::LabeledRecording>& recordings) const {
  obs::TraceSpan span("Pipeline::ProcessLabeled");
  return LabeledRows(recordings, /*normalize=*/true);
}

void Pipeline::Serialize(BinaryWriter* writer) const {
  config_.Serialize(writer);
  normalizer_.Serialize(writer);
}

Result<Pipeline> Pipeline::Deserialize(BinaryReader* reader) {
  Pipeline pipeline;
  MAGNETO_ASSIGN_OR_RETURN(pipeline.config_,
                           PipelineConfig::Deserialize(reader));
  MAGNETO_ASSIGN_OR_RETURN(pipeline.normalizer_,
                           Normalizer::Deserialize(reader));
  return pipeline;
}

}  // namespace magneto::preprocess
