#include "preprocess/features.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "sensors/signal_model.h"
#include "sensors/synthetic_generator.h"

namespace magneto::preprocess {
namespace {

using sensors::Channel;

Matrix ZeroWindow(size_t samples = 120) {
  return Matrix(samples, sensors::kNumChannels);
}

TEST(FeatureExtractorTest, ProducesExactly80Features) {
  FeatureExtractor fx;
  auto features = fx.Extract(ZeroWindow());
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features.value().size(), kNumFeatures);
  EXPECT_EQ(kNumFeatures, 80u);
}

TEST(FeatureExtractorTest, FeatureNamesMatchCount) {
  const auto& names = FeatureExtractor::FeatureNames();
  EXPECT_EQ(names.size(), kNumFeatures);
  EXPECT_EQ(names[0], "acc_x_mean");
  EXPECT_EQ(names[79], "speed_std");
  // Names are unique.
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(FeatureExtractorTest, WrongChannelCountRejected) {
  FeatureExtractor fx;
  EXPECT_FALSE(fx.Extract(Matrix(120, 10)).ok());
}

TEST(FeatureExtractorTest, TooFewSamplesRejected) {
  FeatureExtractor fx;
  EXPECT_FALSE(fx.Extract(Matrix(1, sensors::kNumChannels)).ok());
}

TEST(FeatureExtractorTest, ConstantWindowGivesConstantStats) {
  Matrix window = ZeroWindow();
  for (size_t i = 0; i < window.rows(); ++i) {
    window.At(i, static_cast<size_t>(Channel::kAccX)) = 2.0f;
  }
  FeatureExtractor fx;
  auto features = fx.Extract(window).value();
  EXPECT_FLOAT_EQ(features[0], 2.0f);  // acc_x_mean
  EXPECT_FLOAT_EQ(features[1], 0.0f);  // acc_x_std
  EXPECT_FLOAT_EQ(features[2], 2.0f);  // acc_x_min
  EXPECT_FLOAT_EQ(features[3], 2.0f);  // acc_x_max
  EXPECT_FLOAT_EQ(features[4], 0.0f);  // acc_x_zcr
}

TEST(FeatureExtractorTest, MagnitudeFeatureReflectsTriAxisNorm) {
  Matrix window = ZeroWindow();
  for (size_t i = 0; i < window.rows(); ++i) {
    window.At(i, static_cast<size_t>(Channel::kAccX)) = 3.0f;
    window.At(i, static_cast<size_t>(Channel::kAccY)) = 4.0f;
  }
  FeatureExtractor fx;
  auto features = fx.Extract(window).value();
  // acc_mag_mean is feature 45.
  EXPECT_NEAR(features[45], 5.0f, 1e-5);
}

TEST(FeatureExtractorTest, SpeedFeaturesTrackSpeedChannel) {
  Matrix window = ZeroWindow();
  for (size_t i = 0; i < window.rows(); ++i) {
    window.At(i, static_cast<size_t>(Channel::kSpeed)) =
        (i % 2 == 0) ? 10.0f : 14.0f;
  }
  FeatureExtractor fx;
  auto features = fx.Extract(window).value();
  EXPECT_NEAR(features[78], 12.0f, 1e-4);  // speed_mean
  EXPECT_NEAR(features[79], 2.0f, 1e-4);   // speed_std
}

TEST(FeatureExtractorTest, CorrelationFeatureDetectsLinkedAxes) {
  Matrix window = ZeroWindow();
  for (size_t i = 0; i < window.rows(); ++i) {
    const float v = std::sin(0.3f * static_cast<float>(i));
    window.At(i, static_cast<size_t>(Channel::kAccX)) = v;
    window.At(i, static_cast<size_t>(Channel::kAccY)) = v;   // identical
    window.At(i, static_cast<size_t>(Channel::kAccZ)) = -v;  // inverted
  }
  FeatureExtractor fx;
  auto features = fx.Extract(window).value();
  EXPECT_NEAR(features[69], 1.0, 1e-4);   // corr(x,y)
  EXPECT_NEAR(features[70], -1.0, 1e-4);  // corr(x,z)
}

TEST(FeatureExtractorTest, SeparatesActivitiesInFeatureSpace) {
  // The core requirement: windows of different activities land in
  // measurably different regions of the 80-d space.
  sensors::SyntheticGenerator gen(17);
  sensors::ActivityLibrary lib = sensors::DefaultActivityLibrary();
  FeatureExtractor fx;

  auto mean_feature = [&](sensors::ActivityId id, size_t dim) {
    double acc = 0.0;
    const int reps = 5;
    for (int rep = 0; rep < reps; ++rep) {
      sensors::Recording rec = gen.Generate(lib[id], 1.0);
      acc += fx.Extract(rec.samples).value()[dim];
    }
    return acc / reps;
  };

  // acc_mag_std (feature 46) orders Still < Walk < Run.
  const double still_std = mean_feature(sensors::kStill, 46);
  const double walk_std = mean_feature(sensors::kWalk, 46);
  const double run_std = mean_feature(sensors::kRun, 46);
  EXPECT_LT(still_std, walk_std);
  EXPECT_LT(walk_std, run_std);

  // speed_mean (feature 78) makes Drive stand apart from everything on foot.
  EXPECT_GT(mean_feature(sensors::kDrive, 78),
            mean_feature(sensors::kRun, 78) + 3.0);
}

TEST(FeatureExtractorTest, DeterministicOnSameInput) {
  sensors::SyntheticGenerator gen(23);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 1.0);
  FeatureExtractor fx;
  auto a = fx.Extract(rec.samples).value();
  auto b = fx.Extract(rec.samples).value();
  EXPECT_EQ(a, b);
}

TEST(FeatureExtractorTest, AllFeaturesFiniteOnRealisticData) {
  sensors::SyntheticGenerator gen(29);
  sensors::ActivityLibrary lib = sensors::DefaultActivityLibrary();
  FeatureExtractor fx;
  for (const auto& [id, model] : lib) {
    sensors::Recording rec = gen.Generate(model, 1.0);
    auto features = fx.Extract(rec.samples).value();
    for (size_t j = 0; j < features.size(); ++j) {
      EXPECT_TRUE(std::isfinite(features[j]))
          << "activity " << id << " feature "
          << FeatureExtractor::FeatureNames()[j];
    }
  }
}

// Property sweep: the extractor accepts any window length >= 2 and stays
// 80-dimensional.
class FeatureWindowSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FeatureWindowSizeTest, SizeInvariant) {
  FeatureExtractor fx;
  auto features = fx.Extract(ZeroWindow(GetParam()));
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features.value().size(), kNumFeatures);
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, FeatureWindowSizeTest,
                         ::testing::Values(2, 10, 60, 120, 240, 1000));

// Golden digest of the 80 features over seeded and edge-case windows of 2 to
// 150 rows: mixed-scale noise, constant channels, signed zeros, magnitudes
// near 1e37, denormals and integer steps (ties for min/max and the IQR sort,
// exact zero crossings). The expected value was captured from the
// column-copy implementation that the row sweep replaced; it pins every
// output bit. Never edit it to make the test pass.
uint64_t Fnv(uint64_t h, const float* data, size_t n) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Integer-derived inputs, so the window never depends on how the test is
// compiled. Same kinds as DenoiseTest.DigestUnchanged.
Matrix GoldenWindow(size_t rows, int kind, uint64_t seed) {
  uint64_t state = seed;
  Matrix m(rows, sensors::kNumChannels);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      const float unit =
          static_cast<float>(static_cast<int64_t>(SplitMix(&state) % 20001) -
                             10000) /
          1024.0f;
      float v = 0.0f;
      switch (kind) {
        case 0:
          v = unit * static_cast<float>(1u << (c % 7));
          v += static_cast<float>(c) - 11.0f;
          break;
        case 1:
          v = static_cast<float>(c) * 0.75f - 4.0f;
          break;
        case 2:
          v = (i + c) % 2 == 0 ? 0.0f : -0.0f;
          break;
        case 3:
          v = unit * 1e36f;
          break;
        case 4:
          v = unit * 1e-42f;
          break;
        default:
          v = static_cast<float>(static_cast<int>((i + 3 * c) / 7 % 3) - 1);
          break;
      }
      m.At(i, c) = v;
    }
  }
  return m;
}

TEST(FeatureExtractorTest, DigestUnchanged) {
  FeatureExtractor fx;
  uint64_t digest = 1469598103934665603ull;
  size_t calls = 0;
  for (size_t rows = 2; rows <= 150; ++rows) {
    for (int kind = 0; kind < 6; ++kind) {
      auto features = fx.Extract(GoldenWindow(rows, kind, rows * 17 + kind));
      ASSERT_TRUE(features.ok());
      ASSERT_EQ(features.value().size(), kNumFeatures);
      digest = Fnv(digest, features.value().data(), kNumFeatures);
      ++calls;
    }
  }
  EXPECT_EQ(calls, 149u * 6u);
  EXPECT_EQ(digest, 0x87e3c82079463c42ull) << std::hex << digest;
}

// The fused sweeps against the one-statistic-at-a-time definitions in
// common/math_utils.h, feature by feature and bit for bit.
std::vector<float> ReferenceFeatures(const Matrix& window) {
  const size_t n = window.rows();
  auto column = [&](Channel c) {
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = window.At(i, static_cast<size_t>(c));
    }
    return v;
  };
  auto std_dev = [&](Channel c) {
    const std::vector<float> v = column(c);
    return stats::StdDev(v.data(), n);
  };
  auto mean = [&](Channel c) {
    const std::vector<float> v = column(c);
    return stats::Mean(v.data(), n);
  };
  std::vector<float> out;
  const Channel groups[3][3] = {
      {Channel::kAccX, Channel::kAccY, Channel::kAccZ},
      {Channel::kGyroX, Channel::kGyroY, Channel::kGyroZ},
      {Channel::kLinAccX, Channel::kLinAccY, Channel::kLinAccZ}};
  for (const auto& g : groups) {
    for (Channel c : g) {
      const std::vector<float> v = column(c);
      out.push_back(static_cast<float>(stats::Mean(v.data(), n)));
      out.push_back(static_cast<float>(stats::StdDev(v.data(), n)));
      out.push_back(static_cast<float>(stats::Min(v.data(), n)));
      out.push_back(static_cast<float>(stats::Max(v.data(), n)));
      out.push_back(static_cast<float>(stats::ZeroCrossingRate(v.data(), n)));
    }
  }
  const size_t lag = std::max<size_t>(1, n / 10);
  for (const auto& g : groups) {
    std::vector<float> m(n);
    for (size_t i = 0; i < n; ++i) {
      const double a = window.At(i, static_cast<size_t>(g[0]));
      const double b = window.At(i, static_cast<size_t>(g[1]));
      const double c = window.At(i, static_cast<size_t>(g[2]));
      m[i] = static_cast<float>(std::sqrt(a * a + b * b + c * c));
    }
    out.push_back(static_cast<float>(stats::Mean(m.data(), n)));
    out.push_back(static_cast<float>(stats::StdDev(m.data(), n)));
    out.push_back(static_cast<float>(stats::Skewness(m.data(), n)));
    out.push_back(static_cast<float>(stats::Kurtosis(m.data(), n)));
    out.push_back(static_cast<float>(stats::Energy(m.data(), n)));
    out.push_back(static_cast<float>(stats::MeanAbsDiff(m.data(), n)));
    out.push_back(
        static_cast<float>(stats::Autocorrelation(m.data(), n, lag)));
    out.push_back(static_cast<float>(stats::Iqr(m)));
  }
  const std::vector<float> ax = column(Channel::kAccX);
  const std::vector<float> ay = column(Channel::kAccY);
  const std::vector<float> az = column(Channel::kAccZ);
  for (const auto& [x, y] : {std::pair{&ax, &ay}, {&ax, &az}, {&ay, &az}}) {
    out.push_back(
        static_cast<float>(stats::PearsonCorrelation(x->data(), y->data(), n)));
  }
  out.push_back(static_cast<float>(mean(Channel::kGravityZ)));
  out.push_back(static_cast<float>((std_dev(Channel::kRotX) +
                                    std_dev(Channel::kRotY) +
                                    std_dev(Channel::kRotZ)) /
                                   3.0));
  out.push_back(static_cast<float>((std_dev(Channel::kMagX) +
                                    std_dev(Channel::kMagY) +
                                    std_dev(Channel::kMagZ)) /
                                   3.0));
  out.push_back(static_cast<float>(mean(Channel::kPressure)));
  out.push_back(static_cast<float>(mean(Channel::kLight)));
  out.push_back(static_cast<float>(mean(Channel::kProximity)));
  out.push_back(static_cast<float>(mean(Channel::kSpeed)));
  out.push_back(static_cast<float>(std_dev(Channel::kSpeed)));
  return out;
}

TEST(FeatureExtractorTest, MatchesStatsDefinitionsBitForBit) {
  FeatureExtractor fx;
  FeatureExtractor::Scratch scratch;  // reused across window lengths
  std::vector<float> got(kNumFeatures);
  for (size_t rows : {2, 3, 11, 64, 120, 240, 3, 1000}) {
    for (int kind = 0; kind < 6; ++kind) {
      const Matrix window = GoldenWindow(rows, kind, rows * 29 + kind);
      ASSERT_TRUE(fx.Extract(window, &scratch, got.data()).ok());
      const std::vector<float> want = ReferenceFeatures(window);
      ASSERT_EQ(want.size(), kNumFeatures);
      for (size_t j = 0; j < kNumFeatures; ++j) {
        EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(float)), 0)
            << FeatureExtractor::FeatureNames()[j] << " rows " << rows
            << " kind " << kind << ": " << got[j] << " vs " << want[j];
      }
    }
  }
}

TEST(FeatureExtractorTest, NanWindowMatchesStatsDefinitions) {
  // A NaN sample leaves std::sort's order unspecified; the IQR of that
  // magnitude signal must still come out as stats::Iqr's. Features that are
  // NaN on both sides may differ in payload, every other one bit for bit.
  FeatureExtractor fx;
  FeatureExtractor::Scratch scratch;
  std::vector<float> got(kNumFeatures);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t rows : {2, 17, 120}) {
    for (size_t at : {size_t{0}, rows / 2, rows - 1}) {
      Matrix window = GoldenWindow(rows, 0, rows * 31 + at);
      window.At(at, static_cast<size_t>(Channel::kAccY)) = nan;
      window.At(rows / 3, static_cast<size_t>(Channel::kGyroZ)) = -nan;
      ASSERT_TRUE(fx.Extract(window, &scratch, got.data()).ok());
      const std::vector<float> want = ReferenceFeatures(window);
      for (size_t j = 0; j < kNumFeatures; ++j) {
        if (std::isnan(got[j]) && std::isnan(want[j])) continue;
        EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(float)), 0)
            << FeatureExtractor::FeatureNames()[j] << " rows " << rows
            << " NaN at " << at << ": " << got[j] << " vs " << want[j];
      }
    }
  }
}

}  // namespace
}  // namespace magneto::preprocess
