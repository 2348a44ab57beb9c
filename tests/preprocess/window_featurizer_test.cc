#include "preprocess/window_featurizer.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "preprocess/pipeline.h"
#include "sensors/signal_model.h"
#include "sensors/synthetic_generator.h"

namespace magneto::preprocess {
namespace {

using sensors::Channel;
using sensors::kNumChannels;

/// Every denoising configuration the stream can carry: moving average and
/// median at windows 1/3/5/7/9 (wider than the shortest test windows, so
/// their edge windows overlap), low-pass at alpha 0.3 and 1, and none.
std::vector<DenoiseConfig> AllDenoiseConfigs() {
  std::vector<DenoiseConfig> configs;
  for (DenoiseMethod method :
       {DenoiseMethod::kMovingAverage, DenoiseMethod::kMedian}) {
    for (size_t window : {1, 3, 5, 7, 9}) {
      DenoiseConfig config;
      config.method = method;
      config.window = window;
      configs.push_back(config);
    }
  }
  for (double alpha : {0.3, 1.0}) {
    DenoiseConfig config;
    config.method = DenoiseMethod::kLowPass;
    config.alpha = alpha;
    configs.push_back(config);
  }
  DenoiseConfig none;
  none.method = DenoiseMethod::kNone;
  configs.push_back(none);
  return configs;
}

/// Mixed-scale integer-derived noise, so a window never depends on how the
/// test is compiled.
Matrix NoiseWindow(size_t rows, uint64_t seed) {
  uint64_t state = seed;
  Matrix m(rows, kNumChannels);
  for (size_t i = 0; i < m.size(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t unit = static_cast<int64_t>((state >> 33) % 20001) - 10000;
    m.data()[i] = static_cast<float>(unit) / 1024.0f *
                  static_cast<float>(1u << (i % kNumChannels % 7));
  }
  return m;
}

/// The whole-window path: `Denoise` over every row, then
/// `FeatureExtractor::Extract` over the denoised window.
std::vector<float> WholeWindowFeatures(const Matrix& window,
                                       const DenoiseConfig& config) {
  Matrix denoised;
  EXPECT_TRUE(Denoise(window, config, &denoised).ok());
  FeatureExtractor::Scratch scratch;
  std::vector<float> out(kNumFeatures);
  EXPECT_TRUE(FeatureExtractor().Extract(denoised, &scratch, out.data()).ok());
  return out;
}

/// Pushes `window` row by row through `featurizer` and finishes it.
std::vector<float> StreamedFeatures(const Matrix& window,
                                    const DenoiseConfig& config,
                                    WindowFeaturizer* featurizer) {
  featurizer->Begin(config, window.rows(), /*statistical=*/true);
  for (size_t i = 0; i < window.rows(); ++i) featurizer->Push(window.data());
  std::vector<float> out(kNumFeatures);
  EXPECT_TRUE(featurizer->Finish(window.data(), out.data()).ok());
  return out;
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(float)), 0)
        << what << " feature " << FeatureExtractor::FeatureNames()[j] << ": "
        << got[j] << " vs " << want[j];
  }
}

TEST(WindowFeaturizerTest, StreamedRowsMatchWholeWindowForEveryDenoiser) {
  WindowFeaturizer featurizer;  // reused across lengths and configs
  for (const DenoiseConfig& config : AllDenoiseConfigs()) {
    for (size_t rows : {2, 3, 4, 5, 6, 7, 8, 17, 120, 121}) {
      const Matrix window = NoiseWindow(rows, rows * 97 + config.window);
      const std::string what =
          "method " + std::to_string(static_cast<int>(config.method)) +
          " window " + std::to_string(config.window) + " rows " +
          std::to_string(rows);
      ExpectSameBits(StreamedFeatures(window, config, &featurizer),
                     WholeWindowFeatures(window, config), what);
      const Matrix denoised = Denoise(window, config).value();
      ASSERT_EQ(featurizer.denoised().size(), denoised.size());
      EXPECT_EQ(std::memcmp(featurizer.denoised().data(), denoised.data(),
                            denoised.size() * sizeof(float)),
                0)
          << what;
    }
  }
}

TEST(WindowFeaturizerTest, NonFiniteFramesMatchWholeWindow) {
  // NaN and +-inf samples flow through the filters and the features in the
  // same operation order either way; a magnitude signal holding a NaN still
  // takes std::sort at Finish.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  WindowFeaturizer featurizer;
  for (const DenoiseConfig& config : AllDenoiseConfigs()) {
    for (size_t rows : {2, 5, 7, 120}) {
      for (float bad : {nan, -nan, inf, -inf}) {
        Matrix window = NoiseWindow(rows, rows * 13 + config.window);
        window.At(rows / 2, static_cast<size_t>(Channel::kAccY)) = bad;
        window.At(rows - 1, static_cast<size_t>(Channel::kGyroZ)) = bad;
        window.At(0, static_cast<size_t>(Channel::kSpeed)) = bad;
        ExpectSameBits(StreamedFeatures(window, config, &featurizer),
                       WholeWindowFeatures(window, config),
                       "rows " + std::to_string(rows) + " value " +
                           std::to_string(bad));
      }
    }
  }
}

TEST(WindowFeaturizerTest, BadConfigFailsAtFinish) {
  WindowFeaturizer featurizer;
  DenoiseConfig even;
  even.window = 4;
  const Matrix window = NoiseWindow(8, 1);
  featurizer.Begin(even, window.rows(), /*statistical=*/true);
  for (size_t i = 0; i < window.rows(); ++i) featurizer.Push(window.data());
  std::vector<float> out(kNumFeatures);
  EXPECT_EQ(featurizer.Finish(window.data(), out.data()).code(),
            StatusCode::kInvalidArgument);
  featurizer.Begin(DenoiseConfig{}, 1, /*statistical=*/true);
  featurizer.Push(window.data());
  EXPECT_EQ(featurizer.Finish(window.data(), out.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(WindowFeaturizerTest, ProcessWindowMatchesDenoiseThenExtract) {
  // Pipeline::ProcessWindow drives the featurizer over a whole window; with
  // no normalisation its row is the whole-window features, for every
  // activity.
  PipelineConfig config;
  config.normalization = NormalizationMethod::kNone;
  const Pipeline pipeline(config);
  WindowFeaturizer featurizer;
  Matrix row;
  sensors::SyntheticGenerator gen(5);
  for (const auto& [id, model] : sensors::DefaultActivityLibrary()) {
    const sensors::Recording rec = gen.Generate(model, 1.0);
    ASSERT_TRUE(pipeline.ProcessWindow(rec.samples, &featurizer, &row).ok());
    ExpectSameBits(std::vector<float>(row.data(), row.data() + row.size()),
                   WholeWindowFeatures(rec.samples, config.denoise),
                   "activity " + std::to_string(id));
  }
}

}  // namespace
}  // namespace magneto::preprocess
