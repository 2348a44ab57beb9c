// `stream`: one phone classifying raw 120 Hz frames as fast as a single
// caller can push them (closed loop) through EdgeRuntime::PushFrame, with
// smoothing, drift monitoring and the journal on. The batch-1 latency path.
#include <cstring>

#include "common.h"
#include "tracer.h"

namespace perfbench {

using namespace magneto;

namespace {

constexpr size_t kWarmupWindows = 50;
constexpr size_t kSegments = 10;

/// Checks the emitted stream against a single-owner replay: every pool
/// window through EdgeModel::InferWindow, then the same smoother.
void CheckFingerprint(const Device& device, const WindowPool& pool,
                      std::vector<core::Prediction> emitted, Check inject,
                      Report* report) {
  core::EdgeModel model = DecodeModel(device.bytes);
  std::vector<core::NamedPrediction> raw;
  raw.reserve(pool.windows.size());
  for (const Matrix& w : pool.windows) {
    raw.push_back(Must(model.InferWindow(w), "replay InferWindow"));
  }
  if (inject == Check::kStreamFingerprint && !emitted.empty()) {
    emitted[emitted.size() / 2].activity ^= 1;
  }
  core::PredictionSmoother smoother(core::PredictionSmoother::Options{});
  Fingerprint got, want;
  size_t mismatches = 0;
  for (size_t j = 0; j < emitted.size(); ++j) {
    const core::Prediction expected =
        smoother.Push(raw[j % raw.size()]).prediction;
    got.Add(emitted[j]);
    want.Add(expected);
    mismatches += !SamePrediction(emitted[j], expected);
  }
  report->Detail("check.stream_replayed_windows",
                 static_cast<double>(emitted.size()));
  if (got.value() != want.value() || mismatches > 0) {
    report->Fail("stream_fingerprint",
                 std::to_string(mismatches) + " of " +
                     std::to_string(emitted.size()) +
                     " predictions differ from the InferWindow replay");
  }
}

/// Pushes the first 119 frames of `window`, then times the frame that
/// completes it. Returns the completing call's latency in microseconds.
double PushTimed(core::EdgeRuntime* runtime, const Matrix& window,
                 Result<std::optional<core::NamedPrediction>>* result) {
  sensors::Frame frame;
  const size_t last = window.rows() - 1;
  for (size_t r = 0; r < last; ++r) {
    std::memcpy(frame.data(), window.RowPtr(r),
                sensors::kNumChannels * sizeof(float));
    (void)runtime->PushFrame(frame);
  }
  std::memcpy(frame.data(), window.RowPtr(last),
              sensors::kNumChannels * sizeof(float));
  const uint64_t t0 = NowNs();
  *result = runtime->PushFrame(frame);
  return static_cast<double>(NowNs() - t0) * 1e-3;
}

void RunUntraced(const Args& args, const Scale& scale, double seconds,
                 Report* report) {
  const auto corpus = PretrainCorpus(scale);
  const WindowPool pool = UserWindowPool(scale, args.seed, 120);
  SetupSummary setup;
  Device device = SetupDevice(scale, args.inject, corpus, pool, kWarmupWindows,
                              /*stream_features=*/true, scale.setup_repeats,
                              report, &setup);
  core::EdgeRuntime& runtime = *device.runtime;

  // Closed loop in equal-length segments; see QuietQuartile for how the
  // per-segment statistics are summarised.
  std::vector<core::Prediction> emitted = device.warmup;
  std::vector<double> seg_p50, seg_p99, seg_rate, all_us;
  all_us.reserve(static_cast<size_t>(seconds * 20000));
  size_t correct = 0, errors = 0, windows = 0;
  size_t index = kWarmupWindows % pool.windows.size();
  const double segment_s = seconds / kSegments;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    std::vector<double> latency_us;
    const uint64_t start = NowNs();
    for (;;) {
      Result<std::optional<core::NamedPrediction>> pred =
          std::optional<core::NamedPrediction>{};
      latency_us.push_back(PushTimed(&runtime, pool.windows[index], &pred));
      if (pred.ok() && pred.value().has_value()) {
        emitted.push_back(pred.value()->prediction);
        correct += pred.value()->prediction.activity == pool.labels[index];
      } else {
        ++errors;
      }
      index = (index + 1) % pool.windows.size();
      if ((latency_us.size() & 63) == 0 && SecondsSince(start) >= segment_s) {
        break;
      }
    }
    seg_rate.push_back(static_cast<double>(latency_us.size()) /
                       SecondsSince(start));
    seg_p50.push_back(Quantile(latency_us, 0.5));
    seg_p99.push_back(Quantile(latency_us, 0.99));
    windows += latency_us.size();
    all_us.insert(all_us.end(), latency_us.begin(), latency_us.end());
  }

  if (errors == 0) CheckFingerprint(device, pool, emitted, args.inject, report);
  report->Attempt(windows, errors);
  report->Metric("setup_s", setup.median_total_s(), "s");
  report->Metric("latency_p50_us", QuietQuartile(seg_p50, true), "us");
  report->Metric("latency_p99_us", QuietQuartile(seg_p99, true), "us");
  report->Metric("throughput_per_s", QuietQuartile(seg_rate, false), "1/s");
  report->Metric("accuracy",
                 static_cast<double>(correct) / static_cast<double>(windows),
                 "ratio");
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
  report->Metric("bundle_bytes", static_cast<double>(device.bytes.size()), "B");
  report->Detail("stream.latency_p50_all_us", Quantile(all_us, 0.5));
  report->Detail("stream.latency_p99_all_us", Quantile(all_us, 0.99));
  report->Detail("stream.latency_p999_all_us", Quantile(all_us, 0.999));
  report->Detail("stream.windows", static_cast<double>(windows));
  report->Detail("stream.segments", static_cast<double>(kSegments));
  report->Detail("stream.pool_windows",
                 static_cast<double>(pool.windows.size()));
  report->Detail("stream.input_mib",
                 static_cast<double>(pool.bytes()) / 1048576.0);
  report->Detail("stream.drifting", runtime.Drifting() ? 1.0 : 0.0);
}

/// One window through the public per-layer calls InferWindow makes:
/// denoise, statistical features, normalisation, each backbone layer,
/// nearest-prototype classification. Spans go to `tracer` (may be null).
class Decomposition {
 public:
  Decomposition(core::EdgeModel* model, Tracer* tracer)
      : model_(model),
        tracer_(tracer),
        work_(BackboneWork(model->backbone(), 1)) {
    Tracer names;  // ids only matter when tracing
    Tracer* t = tracer != nullptr ? tracer : &names;
    window_ = t->Name("stream.window");
    denoise_ = t->Name("preprocess.denoise");
    features_ = t->Name("preprocess.features");
    normalize_ = t->Name("preprocess.normalize");
    forward_ = t->Name("nn.forward");
    classify_ = t->Name("core.classify");
    for (size_t i = 0; i < work_.size(); ++i) {
      layers_.push_back(
          t->Name("nn.layer." + std::to_string(i) + "." + work_[i].kind));
    }
  }

  const std::vector<LayerWork>& work() const { return work_; }

  core::Prediction Run(const Matrix& window) {
    const preprocess::Pipeline& pipeline = model_->pipeline();
    Tracer::Scope root(tracer_, window_);
    Matrix denoised;
    {
      Tracer::Scope span(tracer_, denoise_);
      denoised = Must(preprocess::Denoise(window, pipeline.config().denoise),
                      "Denoise");
    }
    std::vector<float> features;
    {
      Tracer::Scope span(tracer_, features_);
      features = Must(extractor_.Extract(denoised), "Extract");
    }
    {
      Tracer::Scope span(tracer_, normalize_);
      MustOk(pipeline.normalizer().Apply(&features), "Normalize");
    }
    const size_t dim = features.size();
    const Matrix input(1, dim, std::move(features));
    const Matrix* embedding = nullptr;
    {
      Tracer::Scope span(tracer_, forward_);
      embedding = &ForwardByLayer(model_->backbone(), input, tracer_, layers_,
                                  buffers_);
    }
    Tracer::Scope span(tracer_, classify_);
    return Must(model_->classifier().Classify(embedding->RowPtr(0),
                                              embedding->cols(), &scratch_),
                "Classify");
  }

 private:
  core::EdgeModel* model_;
  Tracer* tracer_;
  std::vector<LayerWork> work_;
  Tracer::NameId window_, denoise_, features_, normalize_, forward_, classify_;
  std::vector<uint32_t> layers_;
  preprocess::FeatureExtractor extractor_;
  core::NcmClassifier::Scratch scratch_;
  Matrix buffers_[2];
};

/// Traced layer profile of the stream path: an untraced reference segment
/// (PushFrame and InferWindow on the same windows), then each window
/// decomposed into its public per-layer calls under spans.
void RunTraced(const Args& args, const Scale& scale, double seconds,
               Tracer* tracer, Report* report) {
  const auto corpus = PretrainCorpus(scale);
  const WindowPool pool = UserWindowPool(scale, args.seed, 120);
  SetupSummary setup;
  Device device = SetupDevice(scale, args.inject, corpus, pool, kWarmupWindows,
                              /*stream_features=*/true, 1, report, &setup);
  core::EdgeModel model = DecodeModel(device.bytes);
  const size_t n_pool = pool.windows.size();

  // Untraced reference, interleaved per window.
  std::vector<double> push_us, infer_us;
  std::vector<core::Prediction> expected(n_pool);
  const size_t ref_windows = std::max<size_t>(n_pool, 1000);
  for (size_t k = 0; k < ref_windows; ++k) {
    const Matrix& w = pool.windows[k % n_pool];
    Result<std::optional<core::NamedPrediction>> pred =
        std::optional<core::NamedPrediction>{};
    push_us.push_back(PushTimed(device.runtime.get(), w, &pred));
    const uint64_t t0 = NowNs();
    core::NamedPrediction p = Must(model.InferWindow(w), "InferWindow");
    infer_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    expected[k % n_pool] = p.prediction;
  }

  Decomposition decomposed(&model, tracer);
  const std::vector<LayerWork>& work = decomposed.work();
  // Tracing overhead: the same decomposition with every span disabled.
  Decomposition untraced(&model, nullptr);
  std::vector<double> untraced_us;
  for (size_t k = 0; k < ref_windows; ++k) {
    const uint64_t t0 = NowNs();
    untraced.Run(pool.windows[k % n_pool]);
    untraced_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  size_t windows = 0, mismatches = 0;
  const uint64_t start = NowNs();
  while (windows < n_pool || SecondsSince(start) < seconds) {
    const size_t index = windows % n_pool;
    tracer->SetRequest(windows + 1);
    const core::Prediction got = decomposed.Run(pool.windows[index]);
    mismatches += !SamePrediction(got, expected[index]);
    ++windows;
  }
  tracer->SetRequest(0);
  report->Attempt(ref_windows + windows);
  if (mismatches > 0) {
    report->Fail("stream_decomposition",
                 std::to_string(mismatches) +
                     " decomposed windows differ from InferWindow");
  }

  const auto self = tracer->SelfTimesUs();
  const auto total = tracer->DurationsUs();
  auto p50 = [&](const std::string& name) { return Median(self.at(name)); };
  double self_sum = p50("stream.window") + p50("preprocess.denoise") +
                    p50("preprocess.features") + p50("preprocess.normalize") +
                    p50("nn.forward") + p50("core.classify");
  report->Metric("preprocess.denoise_us", p50("preprocess.denoise"), "us");
  report->Metric("preprocess.features_us", p50("preprocess.features"), "us");
  report->Metric("preprocess.normalize_us", p50("preprocess.normalize"), "us");
  report->Metric("nn.forward_us", Median(total.at("nn.forward")), "us");
  for (size_t i = 0; i < work.size(); ++i) {
    const std::string name =
        "nn.layer." + std::to_string(i) + "." + work[i].kind;
    const double us = p50(name);
    self_sum += us;
    report->Metric(name + "_us", us, "us");
    if (work[i].kind == "linear") {
      report->Metric(name + "_gflops", work[i].ops / (us * 1e3), "GFLOP/s");
      report->Metric(name + ".flops_computed", work[i].ops, "flop");
      report->Metric(name + ".bytes_computed", work[i].bytes, "B");
    }
  }
  report->Metric("core.classify_us", p50("core.classify"), "us");
  const double push_p50 = Median(push_us);
  const double infer_p50 = Median(infer_us);
  report->Metric("core.stream_overhead_us", push_p50 - infer_p50, "us");
  // The per-layer self times of one window plus the stream overhead should
  // add up to the untraced PushFrame latency; what is left is the residual.
  const double residual = infer_p50 - self_sum;
  report->Metric("reconcile.stream_residual_pct", 100.0 * residual / infer_p50,
                 "%");
  const double untraced_p50 = Median(untraced_us);
  report->Metric("trace.stream_overhead_pct",
                 100.0 * (Median(total.at("stream.window")) - untraced_p50) /
                     untraced_p50,
                 "%");
  report->Detail("reconcile.stream_untraced_decomposed_p50_us", untraced_p50);
  report->Detail("reconcile.stream_untraced_push_p50_us", push_p50);
  report->Detail("reconcile.stream_untraced_infer_p50_us", infer_p50);
  report->Detail("reconcile.stream_self_sum_us", self_sum);
  report->Detail("reconcile.stream_residual_us", residual);
  report->Detail("stream.traced_windows", static_cast<double>(windows));
}

}  // namespace

void RunStream(const Args& args, const Scale& scale, double seconds,
               Tracer* tracer, Report* report) {
  SetParallelThreads(kStreamPoolThreads);
  if (tracer == nullptr) {
    RunUntraced(args, scale, seconds, report);
  } else {
    RunTraced(args, scale, seconds, tracer, report);
  }
}

}  // namespace perfbench
