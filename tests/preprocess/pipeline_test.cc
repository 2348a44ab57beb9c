#include "preprocess/pipeline.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "sensors/signal_model.h"

namespace magneto::preprocess {
namespace {

std::vector<sensors::LabeledRecording> MakeCorpus(uint64_t seed,
                                                  size_t per_class = 2,
                                                  double seconds = 3.0) {
  sensors::SyntheticGenerator gen(seed);
  return gen.GenerateDataset(sensors::DefaultActivityLibrary(), per_class,
                             seconds);
}

TEST(PipelineTest, FitProducesNormalizedDataset) {
  Pipeline pipeline((PipelineConfig()));
  auto data = pipeline.Fit(MakeCorpus(1));
  ASSERT_TRUE(data.ok());
  // 5 classes x 2 recordings x 3 windows each (3 s @ 120-sample windows).
  EXPECT_EQ(data.value().size(), 30u);
  EXPECT_EQ(data.value().dim(), kNumFeatures);
  EXPECT_TRUE(pipeline.fitted());
}

TEST(PipelineTest, ProcessBeforeFitFails) {
  Pipeline pipeline((PipelineConfig()));
  sensors::SyntheticGenerator gen(2);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 1.0);
  EXPECT_EQ(pipeline.Process(rec).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline.ProcessWindow(rec.samples).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, NoNormalizationNeedsNoFit) {
  PipelineConfig config;
  config.normalization = NormalizationMethod::kNone;
  Pipeline pipeline(config);
  EXPECT_TRUE(pipeline.fitted());
  sensors::SyntheticGenerator gen(3);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 2.0);
  auto windows = pipeline.Process(rec);
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(windows.value().size(), 2u);
}

TEST(PipelineTest, ProcessSegmentsPerConfig) {
  PipelineConfig config;
  config.segmentation.window_samples = 120;
  config.segmentation.stride = 60;  // 50% overlap
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(MakeCorpus(4)).ok());
  sensors::SyntheticGenerator gen(5);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kRun], 3.0);
  auto windows = pipeline.Process(rec);
  ASSERT_TRUE(windows.ok());
  // 360 samples, stride 60 -> starts at 0..240 -> 5 windows.
  EXPECT_EQ(windows.value().size(), 5u);
  for (const auto& w : windows.value()) EXPECT_EQ(w.size(), kNumFeatures);
}

TEST(PipelineTest, ProcessWindowMatchesProcess) {
  // Segment first: each batch row is the window's own rows through the
  // per-window operator, bit for bit, including the windows whose edges a
  // whole-recording filter would have smoothed with their neighbours.
  sensors::SyntheticGenerator gen(7);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 5.0);
  for (size_t stride : {120u, 60u}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    PipelineConfig config;
    config.segmentation.stride = stride;
    Pipeline pipeline(config);
    ASSERT_TRUE(pipeline.Fit(MakeCorpus(6)).ok());
    auto via_process = pipeline.Process(rec);
    ASSERT_TRUE(via_process.ok());
    ASSERT_EQ(via_process.value().size(), (600 - 120) / stride + 1);
    for (size_t i = 0; i < via_process.value().size(); ++i) {
      const size_t start = i * stride;
      auto via_window =
          pipeline.ProcessWindow(rec.samples.RowSlice(start, start + 120));
      ASSERT_TRUE(via_window.ok());
      ASSERT_EQ(via_window.value().size(), kNumFeatures);
      EXPECT_EQ(std::memcmp(via_process.value()[i].data(),
                            via_window.value().data(),
                            kNumFeatures * sizeof(float)),
                0)
          << "window " << i;
    }
  }
}

TEST(PipelineTest, ProcessLabeledKeepsLabels) {
  Pipeline pipeline((PipelineConfig()));
  ASSERT_TRUE(pipeline.Fit(MakeCorpus(8)).ok());
  auto corpus = MakeCorpus(9, 1, 2.0);
  auto data = pipeline.ProcessLabeled(corpus);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().size(), 10u);  // 5 classes x 1 rec x 2 windows
  EXPECT_EQ(data.value().Classes().size(), 5u);
}

TEST(PipelineTest, FitOnEmptyCorpusFails) {
  Pipeline pipeline((PipelineConfig()));
  EXPECT_FALSE(pipeline.Fit({}).ok());
}

TEST(PipelineTest, FitOnTooShortRecordingsFails) {
  Pipeline pipeline((PipelineConfig()));
  sensors::SyntheticGenerator gen(10);
  std::vector<sensors::LabeledRecording> corpus{
      {gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 0.5),
       sensors::kWalk}};  // 60 samples < 120-sample window
  EXPECT_FALSE(pipeline.Fit(corpus).ok());
}

TEST(PipelineTest, SerializationRoundTripPreservesBehaviour) {
  PipelineConfig config;
  config.denoise.method = DenoiseMethod::kLowPass;
  config.denoise.alpha = 0.4;
  config.segmentation.stride = 60;
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(MakeCorpus(11)).ok());

  BinaryWriter w;
  pipeline.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Pipeline::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().fitted());
  EXPECT_EQ(back.value().config().segmentation.stride, 60u);

  sensors::SyntheticGenerator gen(12);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kEScooter], 2.0);
  auto a = pipeline.Process(rec);
  auto b = back.value().Process(rec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i], b.value()[i]) << "window " << i;
  }
}

TEST(PipelineTest, LinearTimeScaling) {
  // C4 sanity check (the full sweep lives in bench_preprocessing): doubling
  // the input roughly doubles the window count, never worse.
  Pipeline pipeline((PipelineConfig()));
  ASSERT_TRUE(pipeline.Fit(MakeCorpus(13)).ok());
  sensors::SyntheticGenerator gen(14);
  const auto& lib = sensors::DefaultActivityLibrary();
  sensors::Recording small = gen.Generate(lib.at(sensors::kWalk), 4.0);
  sensors::Recording big = gen.Generate(lib.at(sensors::kWalk), 8.0);
  EXPECT_EQ(pipeline.Process(small).value().size(), 4u);
  EXPECT_EQ(pipeline.Process(big).value().size(), 8u);
}

}  // namespace
}  // namespace magneto::preprocess
