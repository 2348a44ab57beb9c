#include "preprocess/segmentation.h"

#include <gtest/gtest.h>

namespace magneto::preprocess {
namespace {

Matrix Ramp(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < cols; ++c) {
      m.At(i, c) = static_cast<float>(i);
    }
  }
  return m;
}

TEST(SegmentationTest, NonOverlappingWindows) {
  SegmentationConfig config;
  config.window_samples = 10;
  config.stride = 10;
  auto windows = Segment(Ramp(35, 3), config);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows.value().size(), 3u);  // last 5 rows dropped
  EXPECT_FLOAT_EQ(windows.value()[0].At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(windows.value()[1].At(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(windows.value()[2].At(9, 0), 29.0f);
}

TEST(SegmentationTest, OverlappingWindows) {
  SegmentationConfig config;
  config.window_samples = 10;
  config.stride = 5;
  auto windows = Segment(Ramp(25, 1), config);
  ASSERT_TRUE(windows.ok());
  // starts at 0,5,10,15 -> 4 windows (start 20 would need rows to 29)
  ASSERT_EQ(windows.value().size(), 4u);
  EXPECT_FLOAT_EQ(windows.value()[3].At(0, 0), 15.0f);
}

TEST(SegmentationTest, ExactFit) {
  SegmentationConfig config;
  config.window_samples = 10;
  config.stride = 10;
  auto windows = Segment(Ramp(30, 1), config);
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(windows.value().size(), 3u);
}

TEST(SegmentationTest, TooShortRecordingYieldsNoWindows) {
  SegmentationConfig config;
  config.window_samples = 100;
  config.stride = 100;
  auto windows = Segment(Ramp(99, 2), config);
  ASSERT_TRUE(windows.ok());
  EXPECT_TRUE(windows.value().empty());
}

TEST(SegmentationTest, WindowContentsAreCopies) {
  SegmentationConfig config;
  config.window_samples = 5;
  config.stride = 5;
  Matrix data = Ramp(10, 2);
  auto windows = Segment(data, config);
  ASSERT_TRUE(windows.ok());
  data.At(0, 0) = 999.0f;
  EXPECT_FLOAT_EQ(windows.value()[0].At(0, 0), 0.0f);
}

TEST(SegmentationTest, RecordingOverload) {
  sensors::Recording rec;
  rec.samples = Ramp(240, sensors::kNumChannels);
  rec.sample_rate_hz = 120.0;
  SegmentationConfig config;  // defaults: 120-sample windows, no overlap
  auto windows = Segment(rec, config);
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(windows.value().size(), 2u);
  EXPECT_EQ(windows.value()[0].cols(), sensors::kNumChannels);
}

TEST(SegmentationTest, InvalidConfigRejected) {
  SegmentationConfig zero_window;
  zero_window.window_samples = 0;
  EXPECT_FALSE(Segment(Ramp(10, 1), zero_window).ok());

  SegmentationConfig zero_stride;
  zero_stride.window_samples = 5;
  zero_stride.stride = 0;
  EXPECT_FALSE(Segment(Ramp(10, 1), zero_stride).ok());
}

TEST(SegmentationTest, SerializationRoundTrip) {
  SegmentationConfig config;
  config.window_samples = 60;
  config.stride = 30;
  BinaryWriter w;
  config.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = SegmentationConfig::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().window_samples, 60u);
  EXPECT_EQ(back.value().stride, 30u);
}

TEST(SegmentationTest, DeserializeRejectsHostileSizes) {
  auto read = [](uint64_t window, uint64_t stride) {
    BinaryWriter w;
    w.WriteU64(window);
    w.WriteU64(stride);
    BinaryReader r(w.buffer());
    return SegmentationConfig::Deserialize(&r);
  };
  const uint64_t max = SegmentationConfig::kMaxSamples;
  EXPECT_TRUE(read(2, 1).ok());
  EXPECT_TRUE(read(max, max).ok());
  EXPECT_TRUE(read(120, 60).ok());
  for (uint64_t window : {uint64_t{0}, uint64_t{1}, max + 1, ~uint64_t{0}}) {
    auto res = read(window, 120);
    ASSERT_FALSE(res.ok()) << window;
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption) << window;
  }
  for (uint64_t stride : {uint64_t{0}, max + 1, ~uint64_t{0}}) {
    auto res = read(120, stride);
    ASSERT_FALSE(res.ok()) << stride;
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption) << stride;
  }
}

}  // namespace
}  // namespace magneto::preprocess
