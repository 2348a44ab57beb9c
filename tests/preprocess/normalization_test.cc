#include "preprocess/normalization.h"

#include <cmath>

#include <gtest/gtest.h>

namespace magneto::preprocess {
namespace {

sensors::FeatureDataset MakeData() {
  sensors::FeatureDataset ds;
  ds.Append({0.0f, 100.0f, 5.0f}, 0);
  ds.Append({2.0f, 200.0f, 5.0f}, 1);
  ds.Append({4.0f, 300.0f, 5.0f}, 0);
  ds.Append({6.0f, 400.0f, 5.0f}, 1);
  return ds;
}

TEST(NormalizerTest, ZScoreProducesZeroMeanUnitVar) {
  auto norm = Normalizer::Fit(NormalizationMethod::kZScore, MakeData());
  ASSERT_TRUE(norm.ok());
  auto out = norm.value().ApplyToDataset(MakeData());
  ASSERT_TRUE(out.ok());
  for (size_t j = 0; j < 2; ++j) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < out.value().size(); ++i) {
      mean += out.value().Row(i)[j];
    }
    mean /= out.value().size();
    for (size_t i = 0; i < out.value().size(); ++i) {
      const double d = out.value().Row(i)[j] - mean;
      var += d * d;
    }
    var /= out.value().size();
    EXPECT_NEAR(mean, 0.0, 1e-5) << "dim " << j;
    EXPECT_NEAR(var, 1.0, 1e-4) << "dim " << j;
  }
}

TEST(NormalizerTest, ZScoreConstantDimensionMapsToZero) {
  auto norm = Normalizer::Fit(NormalizationMethod::kZScore, MakeData());
  ASSERT_TRUE(norm.ok());
  std::vector<float> row{3.0f, 250.0f, 5.0f};
  ASSERT_TRUE(norm.value().Apply(&row).ok());
  EXPECT_NEAR(row[2], 0.0f, 1e-6);  // constant 5 maps to 0
}

TEST(NormalizerTest, MinMaxMapsToUnitInterval) {
  auto norm = Normalizer::Fit(NormalizationMethod::kMinMax, MakeData());
  ASSERT_TRUE(norm.ok());
  auto out = norm.value().ApplyToDataset(MakeData());
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < out.value().size(); ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_GE(out.value().Row(i)[j], 0.0f);
      EXPECT_LE(out.value().Row(i)[j], 1.0f);
    }
  }
  // Extremes map to exactly 0 and 1.
  EXPECT_FLOAT_EQ(out.value().Row(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(out.value().Row(3)[0], 1.0f);
}

TEST(NormalizerTest, NoneIsIdentity) {
  auto norm = Normalizer::Fit(NormalizationMethod::kNone, MakeData());
  ASSERT_TRUE(norm.ok());
  std::vector<float> row{42.0f, -1.0f, 3.0f};
  const std::vector<float> orig = row;
  ASSERT_TRUE(norm.value().Apply(&row).ok());
  EXPECT_EQ(row, orig);
}

TEST(NormalizerTest, FrozenStatsApplyToUnseenData) {
  // Edge data outside the fitted range must still use cloud statistics.
  auto norm = Normalizer::Fit(NormalizationMethod::kZScore, MakeData());
  ASSERT_TRUE(norm.ok());
  std::vector<float> row{8.0f, 500.0f, 5.0f};  // beyond the fit range
  ASSERT_TRUE(norm.value().Apply(&row).ok());
  // dim0: mean 3, std sqrt(5) -> (8-3)/sqrt(5)
  EXPECT_NEAR(row[0], (8.0 - 3.0) / std::sqrt(5.0), 1e-4);
}

TEST(NormalizerTest, DimMismatchRejected) {
  auto norm = Normalizer::Fit(NormalizationMethod::kZScore, MakeData());
  ASSERT_TRUE(norm.ok());
  std::vector<float> wrong{1.0f, 2.0f};
  EXPECT_EQ(norm.value().Apply(&wrong).code(), StatusCode::kInvalidArgument);
}

TEST(NormalizerTest, EmptyDatasetRejected) {
  sensors::FeatureDataset empty;
  EXPECT_FALSE(Normalizer::Fit(NormalizationMethod::kZScore, empty).ok());
}

TEST(NormalizerTest, SerializationRoundTrip) {
  auto norm = Normalizer::Fit(NormalizationMethod::kZScore, MakeData());
  ASSERT_TRUE(norm.ok());
  BinaryWriter w;
  norm.value().Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Normalizer::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == norm.value());

  // Same transformation after the round trip.
  std::vector<float> a{1.0f, 150.0f, 5.0f};
  std::vector<float> b = a;
  ASSERT_TRUE(norm.value().Apply(&a).ok());
  ASSERT_TRUE(back.value().Apply(&b).ok());
  EXPECT_EQ(a, b);
}

TEST(NormalizerTest, DeserializeRejectsMismatchedVectors) {
  BinaryWriter w;
  w.WriteU8(1);  // kZScore
  w.WriteF32Vector(std::vector<float>{1.0f, 2.0f});
  w.WriteF32Vector(std::vector<float>{1.0f});
  BinaryReader r(w.buffer());
  EXPECT_FALSE(Normalizer::Deserialize(&r).ok());
}

}  // namespace
}  // namespace magneto::preprocess
