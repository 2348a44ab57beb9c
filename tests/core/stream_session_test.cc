#include "core/stream_session.h"

#include <gtest/gtest.h>

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
  std::vector<float> starts;
  for (int i = first; i < first + count; ++i) {
    const Matrix* window =
        session->PushFrame(FrameOf(static_cast<float>(i)), seg);
    if (window == nullptr) continue;
    EXPECT_EQ(window->rows(), seg.window_samples);
    EXPECT_EQ(window->cols(), sensors::kNumChannels);
    for (size_t r = 0; r < window->rows(); ++r) {
      EXPECT_EQ(window->At(r, sensors::kNumChannels - 1),
                window->At(0, 0) + static_cast<float>(r));
    }
    starts.push_back(window->At(0, 0));
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

  for (int i = 0; i < 2; ++i) session.PushFrame(FrameOf(0), Seg(2, 2));
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
