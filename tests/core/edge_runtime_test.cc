#include "core/edge_runtime.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "compress/compress.h"
#include "sensors/user_profile.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

IncrementalOptions FastUpdateOptions() {
  IncrementalOptions options;
  options.train.epochs = 12;
  options.train.batch_size = 32;
  options.train.learning_rate = 1e-3;
  options.train.distill_weight = 1.0;
  options.train.seed = 7;
  return options;
}

EdgeRuntime MakeRuntime(uint64_t seed) {
  ModelBundle bundle = testing::SmallPretrainedBundle(seed);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  return EdgeRuntime(std::move(model), std::move(support),
                     FastUpdateOptions());
}

/// Feeds a whole recording frame by frame, returning emitted predictions.
std::vector<NamedPrediction> Stream(EdgeRuntime* runtime,
                                    const sensors::Recording& rec) {
  std::vector<NamedPrediction> out;
  for (size_t i = 0; i < rec.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = rec.samples.At(i, c);
    }
    auto pred = runtime->PushFrame(frame);
    EXPECT_TRUE(pred.ok()) << pred.status();
    if (pred.ok() && pred.value().has_value()) {
      out.push_back(*pred.value());
    }
  }
  return out;
}

TEST(EdgeRuntimeTest, EmitsPredictionPerCompletedWindow) {
  EdgeRuntime runtime = MakeRuntime(401);
  sensors::SyntheticGenerator gen(1);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 3.0);
  auto preds = Stream(&runtime, rec);
  EXPECT_EQ(preds.size(), 3u);  // 360 frames / 120-sample windows
  EXPECT_EQ(runtime.stats().frames, 360u);
  EXPECT_EQ(runtime.stats().windows, 3u);
  EXPECT_EQ(runtime.stats().predictions, 3u);
  ASSERT_TRUE(runtime.last_prediction().has_value());
  EXPECT_EQ(runtime.last_prediction()->prediction.activity,
            preds.back().prediction.activity);
}

TEST(EdgeRuntimeTest, NoPredictionBeforeFirstFullWindow) {
  EdgeRuntime runtime = MakeRuntime(402);
  sensors::Frame frame{};
  for (int i = 0; i < 119; ++i) {
    auto pred = runtime.PushFrame(frame);
    ASSERT_TRUE(pred.ok());
    EXPECT_FALSE(pred.value().has_value());
  }
  auto pred = runtime.PushFrame(frame);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(pred.value().has_value());
}

TEST(EdgeRuntimeTest, RecordingModeBuffersInsteadOfPredicting) {
  EdgeRuntime runtime = MakeRuntime(403);
  ASSERT_TRUE(runtime.StartRecording().ok());
  EXPECT_EQ(runtime.mode(), RuntimeMode::kRecording);
  sensors::Frame frame{};
  for (int i = 0; i < 240; ++i) {
    auto pred = runtime.PushFrame(frame);
    ASSERT_TRUE(pred.ok());
    EXPECT_FALSE(pred.value().has_value());
  }
  EXPECT_EQ(runtime.stats().predictions, 0u);
  EXPECT_NEAR(runtime.recorded_seconds(), 2.0, 1e-9);
  runtime.CancelRecording();
  EXPECT_EQ(runtime.mode(), RuntimeMode::kInference);
  EXPECT_NEAR(runtime.recorded_seconds(), 0.0, 1e-9);
}

TEST(EdgeRuntimeTest, DoubleStartRecordingFails) {
  EdgeRuntime runtime = MakeRuntime(404);
  ASSERT_TRUE(runtime.StartRecording().ok());
  EXPECT_EQ(runtime.StartRecording().code(), StatusCode::kFailedPrecondition);
}

TEST(EdgeRuntimeTest, FinishWithoutRecordingFails) {
  EdgeRuntime runtime = MakeRuntime(405);
  EXPECT_EQ(runtime.FinishRecordingAndLearn("X").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.FinishRecordingAndCalibrate("Walk").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EdgeRuntimeTest, FullDemoLoopLearnsNewActivity) {
  // Figure 3 end-to-end: infer -> record gesture -> learn -> infer gesture.
  EdgeRuntime runtime = MakeRuntime(406);
  sensors::SyntheticGenerator gen(2);
  sensors::SignalModel gesture = sensors::MakeGestureModel(50);

  // (a/b) inference on a base activity works.
  sensors::Recording still =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 2.0);
  EXPECT_EQ(Stream(&runtime, still).size(), 2u);

  // (c) record ~25 s of the new gesture.
  ASSERT_TRUE(runtime.StartRecording().ok());
  sensors::Recording capture = gen.Generate(gesture, 25.0);
  EXPECT_TRUE(Stream(&runtime, capture).empty());

  // (d) on-device update.
  auto report = runtime.FinishRecordingAndLearn("Gesture Hi");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(runtime.mode(), RuntimeMode::kInference);
  EXPECT_EQ(runtime.stats().updates, 1u);

  // (e) the new activity is now recognised in the live stream.
  sensors::Recording fresh = gen.Generate(gesture, 6.0);
  auto preds = Stream(&runtime, fresh);
  ASSERT_EQ(preds.size(), 6u);
  size_t hits = 0;
  for (const auto& p : preds) {
    if (p.name == "Gesture Hi") ++hits;
  }
  EXPECT_GT(hits, 3u);
}

TEST(EdgeRuntimeTest, CalibrationViaRuntime) {
  EdgeRuntime runtime = MakeRuntime(407);
  sensors::UserProfile user(5, 0.7);
  sensors::SignalModel personal_walk =
      user.Personalize(sensors::DefaultActivityLibrary()[sensors::kWalk]);
  sensors::SyntheticGenerator gen(3);

  ASSERT_TRUE(runtime.StartRecording().ok());
  Stream(&runtime, gen.Generate(personal_walk, 20.0));
  auto report = runtime.FinishRecordingAndCalibrate("Walk");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().activity, sensors::kWalk);
  // Registry unchanged: calibration adds no class.
  EXPECT_EQ(runtime.model().registry().size(), 5u);
}

TEST(EdgeRuntimeTest, CalibrateUnknownNameFails) {
  EdgeRuntime runtime = MakeRuntime(408);
  ASSERT_TRUE(runtime.StartRecording().ok());
  sensors::Frame frame{};
  for (int i = 0; i < 240; ++i) {
    ASSERT_TRUE(runtime.PushFrame(frame).ok());
  }
  EXPECT_EQ(runtime.FinishRecordingAndCalibrate("NoSuch").status().code(),
            StatusCode::kNotFound);
}

TEST(EdgeRuntimeTest, Int8BackboneRefusesUpdatesAndKeepsServing) {
  // Regression: int8 layers are inference-only, and an update on a quantized
  // backbone used to abort the process at its first backward pass. Learn and
  // calibrate, asynchronous and synchronous, now refuse it before the
  // capture is consumed, and the stream keeps serving.
  ModelBundle bundle = testing::SmallPretrainedBundle(411);
  auto quantized = compress::QuantizeBackbone(bundle.backbone);
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  bundle.backbone = std::move(quantized).value();
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support),
                      FastUpdateOptions());
  sensors::SyntheticGenerator gen(4);

  ASSERT_TRUE(runtime.StartRecording().ok());
  Stream(&runtime,
         gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 3.0));
  const Status refused[] = {
      runtime.FinishRecordingAndLearnAsync("Gesture Hi"),
      runtime.FinishRecordingAndCalibrateAsync("Walk"),
      runtime.FinishRecordingAndLearn("Gesture Hi").status(),
      runtime.FinishRecordingAndCalibrate("Walk").status()};
  for (const Status& status : refused) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("int8"), std::string::npos)
        << status.message();
  }
  EXPECT_FALSE(runtime.UpdatePending());
  EXPECT_EQ(runtime.mode(), RuntimeMode::kRecording);
  EXPECT_NEAR(runtime.recorded_seconds(), 3.0, 1e-9);  // capture kept

  runtime.CancelRecording();
  const auto preds = Stream(
      &runtime,
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 2.0));
  EXPECT_EQ(preds.size(), 2u);
  EXPECT_EQ(runtime.stats().updates, 0u);
  EXPECT_FALSE(runtime.UpdatePending());
}

TEST(EdgeRuntimeTest, OverlappingStrideEmitsMorePredictions) {
  ModelBundle bundle = testing::SmallPretrainedBundle(409);
  // Rebuild the pipeline with 50% overlap but reuse the fitted normaliser by
  // deserialising a modified config is intrusive; instead check the stride
  // plumbing on the default runtime: stride == window -> each frame belongs
  // to exactly one window.
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support),
                      FastUpdateOptions());
  sensors::Frame frame{};
  size_t emitted = 0;
  for (int i = 0; i < 600; ++i) {
    auto pred = runtime.PushFrame(frame);
    ASSERT_TRUE(pred.ok());
    if (pred.value().has_value()) ++emitted;
  }
  EXPECT_EQ(emitted, 5u);
}

TEST(EdgeRuntimeTest, GappedStrideSkipsFrames) {
  // stride > window: windows are sampled with gaps (duty-cycled sensing, a
  // real power-saving mode). With window 120 and stride 240, a 600-frame
  // stream yields windows at frames [0,120) and [240,360) and [480,600).
  ModelBundle bundle = testing::SmallPretrainedBundle(410);
  // Rewire the segmentation stride via serialization round trip of a
  // modified pipeline is heavyweight; instead build a runtime whose pipeline
  // was fitted with the gapped config from scratch.
  core::CloudConfig config = testing::SmallCloudConfig();
  config.pipeline.segmentation.window_samples = 120;
  config.pipeline.segmentation.stride = 240;
  core::CloudInitializer cloud(config);
  auto gapped = cloud.Initialize(testing::SmallCorpus(411),
                                 sensors::ActivityRegistry::BaseActivities());
  ASSERT_TRUE(gapped.ok());
  SupportSet support = std::move(gapped.value().support);
  EdgeModel model = std::move(gapped).value().ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support),
                      FastUpdateOptions());

  sensors::Frame frame{};
  size_t emitted = 0;
  for (int i = 0; i < 600; ++i) {
    auto pred = runtime.PushFrame(frame);
    ASSERT_TRUE(pred.ok());
    if (pred.value().has_value()) ++emitted;
  }
  EXPECT_EQ(emitted, 3u);
}

/// Counts the frames pushed until `runtime` emits its next prediction.
size_t FramesToNextPrediction(EdgeRuntime* runtime) {
  const sensors::Frame frame{};
  for (size_t n = 1; n <= 1000; ++n) {
    auto pred = runtime->PushFrame(frame);
    EXPECT_TRUE(pred.ok()) << pred.status();
    if (pred.ok() && pred.value().has_value()) return n;
  }
  return 0;
}

TEST(EdgeRuntimeTest, GappedStrideSkipResetsWithStreamContext) {
  // Window 120, stride 240: every window leaves 120 frames to discard.
  // Starting a recording and committing an update both drop the stream
  // context, and the pending discard is part of it, so the first window
  // afterwards takes a fresh 120 frames, not 240.
  core::CloudConfig config = testing::SmallCloudConfig();
  config.pipeline.segmentation.window_samples = 120;
  config.pipeline.segmentation.stride = 240;
  core::CloudInitializer cloud(config);
  auto gapped = cloud.Initialize(testing::SmallCorpus(414),
                                 sensors::ActivityRegistry::BaseActivities());
  ASSERT_TRUE(gapped.ok());
  SupportSet support = std::move(gapped.value().support);
  IncrementalOptions options;
  options.train.epochs = 2;
  options.train.batch_size = 16;
  options.train.seed = 7;
  EdgeRuntime runtime(std::move(gapped).value().ToEdgeModel(),
                      std::move(support), options);

  EXPECT_EQ(FramesToNextPrediction(&runtime), 120u);
  ASSERT_TRUE(runtime.StartRecording().ok());
  runtime.CancelRecording();
  EXPECT_EQ(FramesToNextPrediction(&runtime), 120u);

  ASSERT_TRUE(runtime.StartRecording().ok());
  sensors::SyntheticGenerator gen(415);
  Stream(&runtime, gen.Generate(sensors::MakeGestureModel(51), 8.0));
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture Hi").ok());
  EXPECT_EQ(FramesToNextPrediction(&runtime), 120u);
  auto report = runtime.CommitUpdate();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(FramesToNextPrediction(&runtime), 120u);
}

TEST(EdgeRuntimeTest, StreamedWindowsMatchSegmentedInferWindow) {
  // The runtime's frame buffer against the batch segmenter: for overlapping
  // (60), back-to-back (120) and gapped (240) strides on a 120-sample
  // window, every streamed prediction must equal InferWindow on the matching
  // Segment() window of the same recording, bit for bit.
  sensors::SyntheticGenerator gen(412);
  const sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 6.0);
  for (size_t stride : {60, 120, 240}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    core::CloudConfig config = testing::SmallCloudConfig();
    config.pipeline.segmentation.window_samples = 120;
    config.pipeline.segmentation.stride = stride;
    core::CloudInitializer cloud(config);
    auto bundle = cloud.Initialize(testing::SmallCorpus(413),
                                   sensors::ActivityRegistry::BaseActivities());
    ASSERT_TRUE(bundle.ok());
    SupportSet support = std::move(bundle.value().support);
    EdgeModel model = std::move(bundle).value().ToEdgeModel();
    EdgeModel reference = model.Clone();
    EdgeRuntime runtime(std::move(model), std::move(support),
                        FastUpdateOptions());

    const std::vector<NamedPrediction> streamed = Stream(&runtime, rec);
    auto windows =
        preprocess::Segment(rec, reference.pipeline().config().segmentation);
    ASSERT_TRUE(windows.ok());
    ASSERT_EQ(streamed.size(), windows.value().size());
    ASSERT_FALSE(streamed.empty());
    for (size_t i = 0; i < streamed.size(); ++i) {
      auto want = reference.InferWindow(windows.value()[i]);
      ASSERT_TRUE(want.ok());
      const Prediction& got = streamed[i].prediction;
      EXPECT_EQ(got.activity, want.value().prediction.activity) << i;
      EXPECT_EQ(std::memcmp(&got.distance, &want.value().prediction.distance,
                            sizeof(got.distance)),
                0)
          << i;
      EXPECT_EQ(std::memcmp(&got.confidence,
                            &want.value().prediction.confidence,
                            sizeof(got.confidence)),
                0)
          << i;
      EXPECT_EQ(streamed[i].name, want.value().name) << i;
    }
  }
}

TEST(EdgeRuntimeCheckpointTest, SaveAndRestoreRoundTrip) {
  const std::string path =
      testing::UniqueTempPath("magneto_runtime_ckpt.magneto");
  EdgeRuntime runtime = MakeRuntime(420);
  sensors::SyntheticGenerator gen(9);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 2.0);

  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());
  auto restored = EdgeRuntime::FromCheckpoint(path, FastUpdateOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();

  // The restored runtime must predict exactly like the one that saved.
  auto original_preds = Stream(&runtime, rec);
  auto restored_preds = Stream(&restored.value(), rec);
  ASSERT_EQ(original_preds.size(), restored_preds.size());
  for (size_t i = 0; i < original_preds.size(); ++i) {
    EXPECT_EQ(original_preds[i].name, restored_preds[i].name);
    EXPECT_NEAR(original_preds[i].prediction.distance,
                restored_preds[i].prediction.distance, 1e-6);
  }
  std::remove(path.c_str());
}

TEST(EdgeRuntimeCheckpointTest, SecondSaveRotatesLastKnownGood) {
  const std::string path =
      testing::UniqueTempPath("magneto_runtime_rotate.magneto");
  const std::string lkg = EdgeRuntime::LastKnownGoodPath(path);
  EXPECT_EQ(lkg, path + ".lkg");

  EdgeRuntime runtime = MakeRuntime(421);
  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());
  EXPECT_FALSE(std::filesystem::exists(lkg));  // nothing to rotate yet
  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());
  EXPECT_TRUE(std::filesystem::exists(lkg));
  EXPECT_TRUE(ModelBundle::LoadFromFile(lkg).ok());
  std::remove(path.c_str());
  std::remove(lkg.c_str());
}

TEST(EdgeRuntimeCheckpointTest, CorruptPrimaryFallsBackToLastKnownGood) {
  const std::string path =
      testing::UniqueTempPath("magneto_runtime_fallback.magneto");
  const std::string lkg = EdgeRuntime::LastKnownGoodPath(path);
  EdgeRuntime runtime = MakeRuntime(422);
  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());
  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());  // populates the .lkg copy

  // Smash the primary the way an interrupted non-atomic writer would have.
  ASSERT_TRUE(WriteFile(path, "MGTO\x02partial garbage").ok());
  auto restored = EdgeRuntime::FromCheckpoint(path, FastUpdateOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value().model().registry().size(), 5u);
  std::remove(path.c_str());
  std::remove(lkg.c_str());
}

TEST(EdgeRuntimeCheckpointTest, MissingBothCheckpointsFails) {
  auto restored = EdgeRuntime::FromCheckpoint(
      "/no/such/dir/runtime_ckpt.magneto", FastUpdateOptions());
  EXPECT_FALSE(restored.ok());
}

TEST(EdgeRuntimeCheckpointTest, AutoCheckpointSkipsRolledBackUpdate) {
  const std::string path =
      testing::UniqueTempPath("magneto_runtime_rollback.magneto");
  const std::string lkg = EdgeRuntime::LastKnownGoodPath(path);
  std::remove(path.c_str());
  std::remove(lkg.c_str());

  ModelBundle bundle = testing::SmallPretrainedBundle(430);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  IncrementalOptions options = FastUpdateOptions();
  options.failure_hook = [](UpdateStep step) {
    if (step == UpdateStep::kTrain) return Status::Internal("injected");
    return Status::Ok();
  };
  EdgeRuntime runtime(std::move(model), std::move(support), options);

  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());
  runtime.EnableAutoCheckpoint(path);

  ASSERT_TRUE(runtime.StartRecording().ok());
  sensors::SyntheticGenerator gen(12);
  Stream(&runtime, gen.Generate(sensors::MakeGestureModel(60), 25.0));
  auto report = runtime.FinishRecordingAndLearn("Gesture Hi");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(runtime.stats().updates, 0u);

  // The rollback wrote nothing: no rotation happened and the checkpoint on
  // disk still boots the pre-update model.
  EXPECT_FALSE(std::filesystem::exists(lkg));
  auto restored = EdgeRuntime::FromCheckpoint(path, FastUpdateOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value().model().registry().size(), 5u);
  EXPECT_FALSE(restored.value().model().registry().IdOf("Gesture Hi").ok());
  std::remove(path.c_str());
}

TEST(EdgeRuntimeCheckpointTest, AutoCheckpointPersistsCommittedUpdate) {
  const std::string path =
      testing::UniqueTempPath("magneto_runtime_commit.magneto");
  const std::string lkg = EdgeRuntime::LastKnownGoodPath(path);
  std::remove(path.c_str());
  std::remove(lkg.c_str());

  EdgeRuntime runtime = MakeRuntime(431);
  ASSERT_TRUE(runtime.SaveCheckpoint(path).ok());
  runtime.EnableAutoCheckpoint(path);

  ASSERT_TRUE(runtime.StartRecording().ok());
  sensors::SyntheticGenerator gen(13);
  Stream(&runtime, gen.Generate(sensors::MakeGestureModel(61), 25.0));
  auto report = runtime.FinishRecordingAndLearn("Gesture Hi");
  ASSERT_TRUE(report.ok()) << report.status();

  // Commit point persisted the new model and rotated the pre-update one.
  auto restored = EdgeRuntime::FromCheckpoint(path, FastUpdateOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored.value().model().registry().IdOf("Gesture Hi").ok());
  ASSERT_TRUE(std::filesystem::exists(lkg));
  auto previous = ModelBundle::LoadFromFile(lkg);
  ASSERT_TRUE(previous.ok()) << previous.status();
  EXPECT_EQ(previous.value().registry.size(), 5u);
  std::remove(path.c_str());
  std::remove(lkg.c_str());
}

}  // namespace
}  // namespace magneto::core
