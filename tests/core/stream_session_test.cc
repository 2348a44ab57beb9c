#include "core/stream_session.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "sensors/signal_model.h"
#include "sensors/synthetic_generator.h"

namespace magneto::core {
namespace {

/// A frame whose every channel holds `value`, so a window row names the
/// frame it came from.
sensors::Frame FrameOf(float value) {
  sensors::Frame frame;
  frame.fill(value);
  return frame;
}

preprocess::SegmentationConfig Seg(size_t window, size_t stride) {
  preprocess::SegmentationConfig seg;
  seg.window_samples = window;
  seg.stride = stride;
  return seg;
}

/// A pipeline that passes frames through unfiltered and unnormalised, so a
/// window's acc_x min/max/mean features name the frames it holds.
preprocess::Pipeline Raw(const preprocess::SegmentationConfig& seg) {
  preprocess::PipelineConfig config;
  config.denoise.method = preprocess::DenoiseMethod::kNone;
  config.normalization = preprocess::NormalizationMethod::kNone;
  config.segmentation = seg;
  return preprocess::Pipeline(config);
}

NamedPrediction Pred(sensors::ActivityId id, double confidence) {
  NamedPrediction p;
  p.prediction.activity = id;
  p.prediction.confidence = confidence;
  p.name = "#" + std::to_string(id);
  return p;
}

/// Pushes frames numbered `first`, `first + 1`, ... into `session` and
/// returns the first frame number of every window it completes.
std::vector<float> WindowStarts(StreamSession* session,
                                const preprocess::SegmentationConfig& seg,
                                int first, int count) {
  const preprocess::Pipeline pipeline = Raw(seg);
  std::vector<float> starts;
  for (int i = first; i < first + count; ++i) {
    if (!session->PushFrame(FrameOf(static_cast<float>(i)), pipeline)) {
      continue;
    }
    Result<const Matrix*> row = session->FinishWindow(pipeline);
    EXPECT_TRUE(row.ok());
    if (!row.ok()) continue;
    const Matrix& f = *row.value();
    EXPECT_EQ(f.rows(), 1u);
    EXPECT_EQ(f.cols(), preprocess::kNumFeatures);
    // acc_x mean, min and max: consecutive frames start .. start + n - 1.
    const float start = f.At(0, 2);
    const float n = static_cast<float>(seg.window_samples);
    EXPECT_EQ(f.At(0, 3), start + n - 1.0f);
    EXPECT_EQ(f.At(0, 0), start + (n - 1.0f) / 2.0f);
    starts.push_back(start);
  }
  return starts;
}

TEST(StreamSessionTest, WindowsFollowTheStride) {
  StreamSession overlapping(StreamSession::Counters{});
  EXPECT_EQ(WindowStarts(&overlapping, Seg(4, 2), 0, 10),
            (std::vector<float>{0, 2, 4, 6}));
  StreamSession back_to_back(StreamSession::Counters{});
  EXPECT_EQ(WindowStarts(&back_to_back, Seg(4, 4), 0, 12),
            (std::vector<float>{0, 4, 8}));
  // Stride > window: the frames between windows are discarded on arrival.
  StreamSession gapped(StreamSession::Counters{});
  EXPECT_EQ(WindowStarts(&gapped, Seg(3, 5), 0, 14),
            (std::vector<float>{0, 5, 10}));
  EXPECT_EQ(gapped.stats().frames, 14u);
  EXPECT_EQ(gapped.stats().windows, 3u);
  EXPECT_EQ(gapped.stats().predictions, 0u);
}

TEST(StreamSessionTest, ResetContextDropsBufferAndPendingSkip) {
  StreamSession session(StreamSession::Counters{});
  session.EnableJournal(Seg(3, 5), /*sample_rate_hz=*/5.0);
  EXPECT_EQ(WindowStarts(&session, Seg(3, 5), 0, 3),
            (std::vector<float>{0}));
  session.Emit(Pred(1, 0.9));
  // Two frames of the skip are still pending; a reset forgets them, so the
  // next window starts at the very next frame.
  session.ResetContext();
  EXPECT_EQ(WindowStarts(&session, Seg(3, 5), 100, 3),
            (std::vector<float>{100}));
  // A half-filled window is dropped too: 200 and 201 are skipped, 202 and
  // 203 buffered when the reset lands.
  EXPECT_TRUE(WindowStarts(&session, Seg(3, 5), 200, 4).empty());
  session.ResetContext();
  EXPECT_EQ(WindowStarts(&session, Seg(3, 5), 300, 3),
            (std::vector<float>{300}));
  // The journal is a ledger, not stream context: it survives.
  ASSERT_NE(session.journal(), nullptr);
  EXPECT_DOUBLE_EQ(session.journal()->elapsed_seconds(), 1.0);
}

/// Streams `samples` from row `first` on through `session` and checks that
/// every finished window's feature row is memcmp-equal to the whole-window
/// path (`Denoise`, then `FeatureExtractor::Extract`) on the matching
/// `Segment()` window of those rows. Returns the number of windows.
size_t ExpectStreamedMatchesSegmented(StreamSession* session,
                                      const preprocess::Pipeline& pipeline,
                                      const Matrix& samples, size_t first) {
  const Matrix rest = samples.RowSlice(first, samples.rows());
  const std::vector<Matrix> windows =
      preprocess::Segment(rest, pipeline.config().segmentation).value();
  const preprocess::FeatureExtractor extractor;
  size_t next = 0;
  sensors::Frame frame;
  for (size_t r = 0; r < rest.rows(); ++r) {
    std::memcpy(frame.data(), rest.RowPtr(r), sizeof(frame));
    if (!session->PushFrame(frame, pipeline)) continue;
    Result<const Matrix*> row = session->FinishWindow(pipeline);
    EXPECT_TRUE(row.ok());
    if (!row.ok() || next >= windows.size()) return next;
    const Matrix denoised =
        preprocess::Denoise(windows[next], pipeline.config().denoise).value();
    const std::vector<float> want = extractor.Extract(denoised).value();
    EXPECT_EQ(row.value()->size(), want.size());
    if (row.value()->size() != want.size()) return next;
    EXPECT_EQ(std::memcmp(row.value()->data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "window " << next;
    ++next;
  }
  EXPECT_EQ(next, windows.size());
  return next;
}

TEST(StreamSessionTest, StreamedFeaturesMatchWholeWindowAtEveryStride) {
  // Stride < window replays the retained frames into a fresh featurizer,
  // stride = window starts it empty, stride > window drops frames first.
  sensors::SyntheticGenerator gen(7);
  const Matrix samples =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 8.0)
          .samples;
  for (const auto& [window, stride] :
       {std::pair<size_t, size_t>{120, 60}, {120, 120}, {120, 240},
        {120, 1}, {5, 3}, {2, 1}, {7, 9}}) {
    // The default moving average of 5, unnormalised.
    preprocess::PipelineConfig config = Raw(Seg(window, stride)).config();
    config.denoise = preprocess::DenoiseConfig{};
    SCOPED_TRACE("window " + std::to_string(window) + " stride " +
                 std::to_string(stride));
    StreamSession session(StreamSession::Counters{});
    EXPECT_GT(ExpectStreamedMatchesSegmented(
                  &session, preprocess::Pipeline(config), samples, 0),
              0u);
  }
}

TEST(StreamSessionTest, ResetContextInMidWindowRestartsTheFeaturizer) {
  sensors::SyntheticGenerator gen(9);
  const Matrix samples =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kRun], 4.0)
          .samples;
  preprocess::PipelineConfig config = Raw(Seg(120, 60)).config();
  config.denoise = preprocess::DenoiseConfig{};
  const preprocess::Pipeline pipeline(config);
  StreamSession session(StreamSession::Counters{});
  // 130 frames: one window finished, the next 70 frames into its
  // featurizer; the reset drops them and the stream restarts at frame 130.
  sensors::Frame frame;
  for (size_t r = 0; r < 130; ++r) {
    std::memcpy(frame.data(), samples.RowPtr(r), sizeof(frame));
    if (session.PushFrame(frame, pipeline)) {
      ASSERT_TRUE(session.FinishWindow(pipeline).ok());
    }
  }
  session.ResetContext();
  EXPECT_GT(ExpectStreamedMatchesSegmented(&session, pipeline, samples, 130),
            2u);
}

TEST(StreamSessionTest, EmitsTheRowsProcessLabeledTrainsOn) {
  // One preprocessing definition: the normalised rows the stream serves are
  // memcmp-equal to the rows training gets from ProcessLabeled for the same
  // frames, at stride = window and stride = window / 2.
  sensors::SyntheticGenerator gen(11);
  const auto& lib = sensors::DefaultActivityLibrary();
  const sensors::Recording rec = gen.Generate(lib.at(sensors::kRun), 6.0);
  for (size_t stride : {120u, 60u}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    preprocess::PipelineConfig config;
    config.segmentation = Seg(120, stride);
    preprocess::Pipeline pipeline(config);
    ASSERT_TRUE(
        pipeline.Fit(gen.GenerateDataset(lib, /*per_class=*/1, 3.0)).ok());
    const auto trained = pipeline.ProcessLabeled({{rec, sensors::kRun}});
    ASSERT_TRUE(trained.ok());
    ASSERT_EQ(trained.value().size(), (720 - 120) / stride + 1);

    StreamSession session(StreamSession::Counters{});
    size_t next = 0;
    sensors::Frame frame;
    for (size_t r = 0; r < rec.samples.rows(); ++r) {
      std::memcpy(frame.data(), rec.samples.RowPtr(r), sizeof(frame));
      if (!session.PushFrame(frame, pipeline)) continue;
      Result<const Matrix*> row = session.FinishWindow(pipeline);
      ASSERT_TRUE(row.ok());
      ASSERT_LT(next, trained.value().size());
      ASSERT_EQ(row.value()->size(), trained.value().dim());
      EXPECT_EQ(std::memcmp(row.value()->data(), trained.value().Row(next),
                            trained.value().dim() * sizeof(float)),
                0)
          << "window " << next;
      ++next;
    }
    EXPECT_EQ(next, trained.value().size());
  }
}

TEST(StreamSessionTest, EmitRunsTheConsumerChainAndCounts) {
  obs::Registry& registry = obs::Registry::Global();
  StreamSession::Counters counters{
      registry.GetCounter("test.stream_session.frames"),
      registry.GetCounter("test.stream_session.windows"),
      registry.GetCounter("test.stream_session.predictions"),
      registry.GetCounter("test.stream_session.rejections"),
      registry.GetCounter("test.stream_session.smoother_overrides")};
  for (obs::Counter* c :
       {counters.frames, counters.windows, counters.predictions,
        counters.rejections, counters.smoother_overrides}) {
    c->Reset();
  }
  StreamSession session(counters);
  session.EnableSmoothing({.window = 5});
  DriftMonitor::Options drift;
  drift.window = 3;
  drift.min_confidence = 0.5;
  session.EnableDriftMonitoring(drift, /*baseline_distance=*/0.0);
  session.EnableJournal(Seg(2, 2), /*sample_rate_hz=*/2.0);

  for (int i = 0; i < 2; ++i) session.PushFrame(FrameOf(0), Raw(Seg(2, 2)));
  for (int i = 0; i < 4; ++i) session.Emit(Pred(0, 0.9));
  // One outlier is voted down by the smoother and counted as an override.
  NamedPrediction out = session.Emit(Pred(1, 0.6));
  EXPECT_EQ(out.prediction.activity, 0);
  EXPECT_EQ(session.last_prediction()->prediction.activity, 0);
  EXPECT_EQ(counters.smoother_overrides->value(), 1u);
  // An Unknown raw prediction counts as a rejection.
  session.Emit(Pred(kUnknownActivity, 0.1));
  EXPECT_EQ(counters.rejections->value(), 1u);
  EXPECT_EQ(counters.frames->value(), 2u);
  EXPECT_EQ(counters.windows->value(), 1u);
  EXPECT_EQ(counters.predictions->value(), 6u);
  EXPECT_EQ(session.stats().predictions, 6u);
  EXPECT_DOUBLE_EQ(session.journal()->elapsed_seconds(), 6.0);
  EXPECT_FALSE(session.Drifting());
}

TEST(StreamSessionTest, UnorderedPredictionsBypassTheConsumers) {
  StreamSession session(StreamSession::Counters{});
  DriftMonitor::Options drift;
  drift.window = 2;
  drift.min_confidence = 0.5;
  session.EnableDriftMonitoring(drift, /*baseline_distance=*/0.0);
  session.EnableJournal(Seg(2, 2), /*sample_rate_hz=*/2.0);

  const NamedPrediction low = Pred(2, 0.1);
  session.EmitUnordered(&low);
  session.EmitUnordered(&low);
  session.EmitUnordered(nullptr);  // a window whose classification failed
  EXPECT_EQ(session.stats().windows, 3u);
  EXPECT_EQ(session.stats().predictions, 2u);
  EXPECT_EQ(session.stats().frames, 0u);
  EXPECT_EQ(session.last_prediction()->prediction.activity, 2);
  EXPECT_FALSE(session.Drifting());
  EXPECT_DOUBLE_EQ(session.journal()->elapsed_seconds(), 0.0);

  // The same two predictions through the ordered path do alarm.
  session.Emit(low);
  session.Emit(low);
  EXPECT_TRUE(session.Drifting());
}

}  // namespace
}  // namespace magneto::core
