#include "preprocess/pipeline.h"

#include <algorithm>

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

/// Returns the first non-OK status in `statuses`, or OK. Scanning in index
/// order keeps the reported error identical to the serial loop's.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

size_t FeatureDim(FeatureMode mode) {
  switch (mode) {
    case FeatureMode::kStatistical:
      return kNumFeatures;
    case FeatureMode::kSpectral:
      return kNumSpectralFeatures;
    case FeatureMode::kCombined:
      return kNumFeatures + kNumSpectralFeatures;
  }
  return 0;
}

void PipelineConfig::Serialize(BinaryWriter* writer) const {
  denoise.Serialize(writer);
  segmentation.Serialize(writer);
  writer->WriteU8(static_cast<uint8_t>(normalization));
  writer->WriteU8(static_cast<uint8_t>(features));
  writer->WriteF64(sample_rate_hz);
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
  if (features > static_cast<uint8_t>(FeatureMode::kCombined)) {
    return Status::Corruption("bad feature mode: " + std::to_string(features));
  }
  config.features = static_cast<FeatureMode>(features);
  MAGNETO_ASSIGN_OR_RETURN(config.sample_rate_hz, reader->ReadF64());
  return config;
}

Result<std::vector<float>> Pipeline::Featurize(const Matrix& window) const {
  std::vector<float> out;
  out.reserve(feature_dim());
  if (config_.features != FeatureMode::kSpectral) {
    out.resize(kNumFeatures);
    FeatureExtractor::Scratch scratch;
    MAGNETO_RETURN_IF_ERROR(extractor_.Extract(window, &scratch, out.data()));
  }
  if (config_.features != FeatureMode::kStatistical) {
    MAGNETO_ASSIGN_OR_RETURN(std::vector<float> spec,
                             spectral_.Extract(window));
    out.insert(out.end(), spec.begin(), spec.end());
  }
  return out;
}

Result<sensors::FeatureDataset> Pipeline::RawFeatures(
    const std::vector<sensors::LabeledRecording>& recordings) const {
  obs::TraceSpan span("Pipeline::RawFeatures");
  obs::ScopedTimer timer(Metrics().batch_ms, /*scale=*/1e3);
  Metrics().recordings->Increment(recordings.size());

  // Stage 1: denoise + segment, one recording per work item.
  const size_t n = recordings.size();
  std::vector<std::vector<Matrix>> windows(n);
  std::vector<Status> seg_status(n, Status::Ok());
  {
    obs::TraceSpan segment_span("Pipeline::DenoiseSegment");
    ParallelFor(0, n, 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        Result<Matrix> denoised =
            Denoise(recordings[i].recording.samples, config_.denoise);
        if (!denoised.ok()) {
          seg_status[i] = denoised.status();
          continue;
        }
        Result<std::vector<Matrix>> segs =
            Segment(denoised.value(), config_.segmentation);
        if (!segs.ok()) {
          seg_status[i] = segs.status();
          continue;
        }
        windows[i] = std::move(segs).value();
      }
    });
  }
  MAGNETO_RETURN_IF_ERROR(FirstError(seg_status));

  // Stage 2: featurize every window. The flattened work list preserves
  // (recording, window) order, so the assembled dataset matches the serial
  // loop row for row.
  std::vector<const Matrix*> work;
  std::vector<sensors::ActivityId> work_labels;
  for (size_t i = 0; i < n; ++i) {
    for (const Matrix& w : windows[i]) {
      work.push_back(&w);
      work_labels.push_back(recordings[i].label);
    }
  }
  Metrics().windows->Increment(work.size());
  std::vector<std::vector<float>> features(work.size());
  std::vector<Status> feat_status(work.size(), Status::Ok());
  {
    obs::TraceSpan featurize_span("Pipeline::Featurize");
    ParallelFor(0, work.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        Result<std::vector<float>> f = Featurize(*work[i]);
        if (f.ok()) {
          features[i] = std::move(f).value();
        } else {
          feat_status[i] = f.status();
        }
      }
    });
  }
  MAGNETO_RETURN_IF_ERROR(FirstError(feat_status));

  sensors::FeatureDataset out;
  for (size_t i = 0; i < work.size(); ++i) {
    out.Append(features[i], work_labels[i]);
  }
  return out;
}

Result<sensors::FeatureDataset> Pipeline::Fit(
    const std::vector<sensors::LabeledRecording>& recordings) {
  obs::TraceSpan span("Pipeline::Fit");
  MAGNETO_ASSIGN_OR_RETURN(sensors::FeatureDataset raw,
                           RawFeatures(recordings));
  if (raw.empty()) {
    return Status::InvalidArgument(
        "no complete windows in the fitting recordings");
  }
  MAGNETO_ASSIGN_OR_RETURN(normalizer_,
                           Normalizer::Fit(config_.normalization, raw));
  return normalizer_.ApplyToDataset(raw);
}

void Pipeline::BeginWindow(size_t n, WindowFeaturizer* featurizer) const {
  featurizer->Begin(config_.denoise, n,
                    config_.features != FeatureMode::kSpectral);
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
  if (config_.features != FeatureMode::kStatistical) {
    MAGNETO_ASSIGN_OR_RETURN(std::vector<float> spec,
                             spectral_.Extract(featurizer->denoised()));
    std::copy(spec.begin(), spec.end(),
              row + (config_.features == FeatureMode::kSpectral
                         ? 0
                         : kNumFeatures));
  }
  return normalizer_.Apply(row, out->cols());
}

Status Pipeline::ProcessWindow(const Matrix& window,
                               WindowFeaturizer* featurizer,
                               Matrix* out) const {
  if (window.cols() != sensors::kNumChannels) {
    return Status::InvalidArgument(
        "window must have " + std::to_string(sensors::kNumChannels) +
        " channels, got " + std::to_string(window.cols()));
  }
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
  if (!fitted()) {
    return Status::FailedPrecondition("pipeline normalizer not fitted");
  }
  MAGNETO_ASSIGN_OR_RETURN(Matrix denoised,
                           Denoise(recording.samples, config_.denoise));
  MAGNETO_ASSIGN_OR_RETURN(std::vector<Matrix> windows,
                           Segment(denoised, config_.segmentation));
  std::vector<std::vector<float>> out(windows.size());
  std::vector<Status> status(windows.size(), Status::Ok());
  ParallelFor(0, windows.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Result<std::vector<float>> features = Featurize(windows[i]);
      if (!features.ok()) {
        status[i] = features.status();
        continue;
      }
      out[i] = std::move(features).value();
      status[i] = normalizer_.Apply(&out[i]);
    }
  });
  MAGNETO_RETURN_IF_ERROR(FirstError(status));
  return out;
}

Result<sensors::FeatureDataset> Pipeline::ProcessLabeled(
    const std::vector<sensors::LabeledRecording>& recordings) const {
  if (!fitted()) {
    return Status::FailedPrecondition("pipeline normalizer not fitted");
  }
  obs::TraceSpan span("Pipeline::ProcessLabeled");
  MAGNETO_ASSIGN_OR_RETURN(sensors::FeatureDataset raw,
                           RawFeatures(recordings));
  return normalizer_.ApplyToDataset(raw);
}

void Pipeline::Serialize(BinaryWriter* writer) const {
  config_.Serialize(writer);
  normalizer_.Serialize(writer);
}

Result<Pipeline> Pipeline::Deserialize(BinaryReader* reader) {
  Pipeline pipeline;
  MAGNETO_ASSIGN_OR_RETURN(pipeline.config_,
                           PipelineConfig::Deserialize(reader));
  pipeline.spectral_ = SpectralFeatureExtractor(pipeline.config_.sample_rate_hz);
  MAGNETO_ASSIGN_OR_RETURN(pipeline.normalizer_,
                           Normalizer::Deserialize(reader));
  return pipeline;
}

}  // namespace magneto::preprocess
