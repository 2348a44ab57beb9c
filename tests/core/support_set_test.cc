#include "core/support_set.h"

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace magneto::core {
namespace {

sensors::FeatureDataset ClassData(sensors::ActivityId id, size_t n,
                                  float center, uint64_t seed) {
  Rng rng(seed);
  sensors::FeatureDataset ds;
  for (size_t i = 0; i < n; ++i) {
    ds.Append({center + static_cast<float>(rng.Normal(0.0, 0.5)),
               static_cast<float>(rng.Normal(0.0, 0.5))},
              id);
  }
  return ds;
}

/// Identity embedder: embedding space == feature space.
class IdentityEmbedder : public Embedder {
 public:
  Matrix Embed(const Matrix& features) override { return features; }
  size_t embedding_dim() const override { return 2; }
};

TEST(SupportSetTest, RandomSelectionRespectsCapacity) {
  SupportSet set(5, SelectionStrategy::kRandom);
  Rng rng(1);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 20, 0.0f, 2), nullptr, &rng).ok());
  EXPECT_EQ(set.ClassSize(0), 5u);
  EXPECT_EQ(set.TotalSize(), 5u);
  EXPECT_TRUE(set.HasClass(0));
  EXPECT_FALSE(set.HasClass(1));
}

TEST(SupportSetTest, SmallClassKeptWhole) {
  SupportSet set(100, SelectionStrategy::kRandom);
  Rng rng(1);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 7, 0.0f, 3), nullptr, &rng).ok());
  EXPECT_EQ(set.ClassSize(0), 7u);
}

TEST(SupportSetTest, ForeignLabelRejected) {
  SupportSet set(5, SelectionStrategy::kRandom);
  Rng rng(1);
  sensors::FeatureDataset mixed = ClassData(0, 3, 0.0f, 4);
  mixed.Append({1.0f, 1.0f}, 1);
  EXPECT_EQ(set.SetClass(0, mixed, nullptr, &rng).code(),
            StatusCode::kInvalidArgument);
}

TEST(SupportSetTest, EmptyClassRejected) {
  SupportSet set(5, SelectionStrategy::kRandom);
  Rng rng(1);
  EXPECT_FALSE(set.SetClass(0, {}, nullptr, &rng).ok());
}

TEST(SupportSetTest, DimMismatchRejected) {
  SupportSet set(5, SelectionStrategy::kRandom);
  Rng rng(1);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 5, 0.0f, 5), nullptr, &rng).ok());
  sensors::FeatureDataset wrong;
  wrong.Append({1.0f, 2.0f, 3.0f}, 1);
  EXPECT_EQ(set.SetClass(1, wrong, nullptr, &rng).code(),
            StatusCode::kInvalidArgument);
}

TEST(SupportSetTest, SetClassReplacesPrevious) {
  SupportSet set(10, SelectionStrategy::kRandom);
  Rng rng(1);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 10, 0.0f, 6), nullptr, &rng).ok());
  // Calibration move: replace with data centred elsewhere.
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 10, 50.0f, 7), nullptr, &rng).ok());
  EXPECT_EQ(set.ClassSize(0), 10u);
  Matrix exemplars = set.ClassExemplars(0).value();
  for (size_t i = 0; i < exemplars.rows(); ++i) {
    EXPECT_GT(exemplars.At(i, 0), 40.0f);
  }
}

TEST(SupportSetTest, HerdingPrefersMeanTrackingExemplars) {
  // With one extreme outlier, herding at k=1 must pick a central point, and
  // the herded subset mean must track the class mean better than the
  // worst-case random pick.
  sensors::FeatureDataset data;
  for (int i = 0; i < 20; ++i) {
    data.Append({static_cast<float>(i % 3) * 0.1f, 0.0f}, 0);
  }
  data.Append({100.0f, 0.0f}, 0);  // outlier

  SupportSet set(3, SelectionStrategy::kHerding);
  IdentityEmbedder embedder;
  ASSERT_TRUE(set.SetClass(0, data, &embedder, nullptr).ok());
  Matrix picked = set.ClassExemplars(0).value();
  // The herded prefix approximates the mean; mean of data ~ 4.86 in dim 0
  // (dominated by the outlier being averaged over 21 points). The first pick
  // is the single point closest to the mean — never the outlier itself at
  // k=1... but with k=3 the outlier may appear later. Check the first pick.
  EXPECT_LT(picked.At(0, 0), 50.0f);
}

TEST(SupportSetTest, HerdingSubsetMeanApproximatesClassMean) {
  Rng data_rng(8);
  sensors::FeatureDataset data = ClassData(0, 50, 3.0f, 9);
  SupportSet herded(10, SelectionStrategy::kHerding);
  SupportSet random(10, SelectionStrategy::kRandom);
  IdentityEmbedder embedder;
  Rng rng(10);
  ASSERT_TRUE(herded.SetClass(0, data, &embedder, nullptr).ok());
  ASSERT_TRUE(random.SetClass(0, data, nullptr, &rng).ok());

  Matrix full_mean = data.ToMatrix().ColMean();
  auto mean_error = [&](const SupportSet& s) {
    Matrix m = s.ClassExemplars(0).value().ColMean();
    m.SubInPlace(full_mean);
    return std::sqrt(m.SumOfSquares());
  };
  // Herding is designed to track the mean; allow equality but it should not
  // be worse.
  EXPECT_LE(mean_error(herded), mean_error(random) + 1e-6);
}

TEST(SupportSetTest, HerdingWithoutEmbedderFallsBackToFeatureSpace) {
  SupportSet set(3, SelectionStrategy::kHerding);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 10, 0.0f, 11), nullptr, nullptr)
                  .ok());
  EXPECT_EQ(set.ClassSize(0), 3u);
}

TEST(SupportSetTest, RandomWithoutRngRejected) {
  SupportSet set(3, SelectionStrategy::kRandom);
  EXPECT_EQ(set.SetClass(0, ClassData(0, 5, 0.0f, 12), nullptr, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SupportSetTest, ReservoirStreamingKeepsUniformSample) {
  SupportSet set(10, SelectionStrategy::kReservoir);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        set.AddStreamingSample(0, {static_cast<float>(i), 0.0f}, &rng).ok());
  }
  EXPECT_EQ(set.ClassSize(0), 10u);
  // A uniform sample over [0, 1000) should not be confined to the first
  // insertions: its mean sits well above 100.
  Matrix kept = set.ClassExemplars(0).value();
  double mean = 0.0;
  for (size_t i = 0; i < kept.rows(); ++i) mean += kept.At(i, 0);
  mean /= kept.rows();
  EXPECT_GT(mean, 150.0);
}

TEST(SupportSetTest, StreamingRequiresReservoirStrategy) {
  SupportSet set(10, SelectionStrategy::kRandom);
  Rng rng(14);
  EXPECT_EQ(set.AddStreamingSample(0, {1.0f, 2.0f}, &rng).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SupportSetTest, StreamingEmptyFeatureRejected) {
  // Regression: the very first AddStreamingSample used to accept an empty
  // feature vector (dim_ was still 0, so the length check passed) and pin
  // the whole set to dim 0 — every later real sample then bounced.
  SupportSet set(10, SelectionStrategy::kReservoir);
  Rng rng(17);
  EXPECT_EQ(set.AddStreamingSample(0, {}, &rng).code(),
            StatusCode::kInvalidArgument);
  // The set is untouched: real samples still define the dimension.
  ASSERT_TRUE(set.AddStreamingSample(0, {1.0f, 2.0f}, &rng).ok());
  EXPECT_EQ(set.ClassSize(0), 1u);
}

TEST(SupportSetTest, SetClassZeroDimRejected) {
  // Same hole via SetClass: a dataset whose rows are zero-length must be
  // rejected rather than silently creating a dim-0 support set.
  SupportSet set(5, SelectionStrategy::kRandom);
  Rng rng(18);
  sensors::FeatureDataset zero_dim;
  zero_dim.Append({}, 0);
  EXPECT_EQ(set.SetClass(0, zero_dim, nullptr, &rng).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(set.NumClasses(), 0u);
}

TEST(SupportSetTest, RemoveClass) {
  SupportSet set(5, SelectionStrategy::kRandom);
  Rng rng(15);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 5, 0.0f, 16), nullptr, &rng).ok());
  ASSERT_TRUE(set.SetClass(1, ClassData(1, 5, 1.0f, 17), nullptr, &rng).ok());
  EXPECT_TRUE(set.RemoveClass(0).ok());
  EXPECT_FALSE(set.HasClass(0));
  EXPECT_EQ(set.RemoveClass(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(set.Classes(), (std::vector<sensors::ActivityId>{1}));
}

TEST(SupportSetTest, AsDatasetAndExclusion) {
  SupportSet set(4, SelectionStrategy::kRandom);
  Rng rng(18);
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 8, 0.0f, 19), nullptr, &rng).ok());
  ASSERT_TRUE(set.SetClass(1, ClassData(1, 8, 5.0f, 20), nullptr, &rng).ok());
  sensors::FeatureDataset all = set.AsDataset();
  EXPECT_EQ(all.size(), 8u);
  EXPECT_EQ(all.Classes().size(), 2u);
  sensors::FeatureDataset without0 = set.DatasetExcluding(0);
  EXPECT_EQ(without0.size(), 4u);
  EXPECT_EQ(without0.Classes(), (std::vector<sensors::ActivityId>{1}));
}

TEST(SupportSetTest, MemoryBytesMatchesPaperArithmetic) {
  // Paper §3.2: "200 observations per class cost roughly 0.5 MB in 32-bit
  // precision" — with 80 features per observation per 5 classes... the
  // 0.5 MB/class figure corresponds to ~600 floats/observation; our
  // 80-feature observations cost 200 * 80 * 4 = 64 kB per class. Verify the
  // accounting is exact.
  SupportSet set(200, SelectionStrategy::kRandom);
  Rng rng(21);
  sensors::FeatureDataset big;
  Rng data_rng(22);
  for (int i = 0; i < 300; ++i) {
    std::vector<float> row(80);
    for (float& v : row) v = static_cast<float>(data_rng.Normal(0.0, 1.0));
    big.Append(row, 0);
  }
  ASSERT_TRUE(set.SetClass(0, big, nullptr, &rng).ok());
  EXPECT_EQ(set.MemoryBytes(), 200u * 80u * sizeof(float));
}

TEST(SupportSetTest, SerializationRoundTrip) {
  SupportSet set(5, SelectionStrategy::kHerding);
  IdentityEmbedder embedder;
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 9, 0.0f, 23), &embedder, nullptr)
                  .ok());
  ASSERT_TRUE(set.SetClass(1, ClassData(1, 9, 4.0f, 24), &embedder, nullptr)
                  .ok());
  BinaryWriter w;
  set.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = SupportSet::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().capacity_per_class(), 5u);
  EXPECT_EQ(back.value().strategy(), SelectionStrategy::kHerding);
  EXPECT_EQ(back.value().TotalSize(), set.TotalSize());
  Matrix orig = set.ClassExemplars(1).value();
  Matrix copy = back.value().ClassExemplars(1).value();
  ASSERT_TRUE(orig.SameShape(copy));
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_FLOAT_EQ(orig.data()[i], copy.data()[i]);
  }
}

TEST(SupportSetTest, DeserializeRejectsBadStrategy) {
  BinaryWriter w;
  w.WriteU64(5);
  w.WriteU8(77);  // bogus strategy
  BinaryReader r(w.buffer());
  EXPECT_FALSE(SupportSet::Deserialize(&r).ok());
}

// Capacity sweep: selection never exceeds capacity for any strategy.
class SupportCapacityTest
    : public ::testing::TestWithParam<std::tuple<size_t, SelectionStrategy>> {
};

TEST_P(SupportCapacityTest, CapacityInvariant) {
  const auto [capacity, strategy] = GetParam();
  SupportSet set(capacity, strategy);
  IdentityEmbedder embedder;
  Rng rng(25);
  ASSERT_TRUE(
      set.SetClass(0, ClassData(0, 57, 0.0f, 26), &embedder, &rng).ok());
  EXPECT_EQ(set.ClassSize(0), std::min<size_t>(capacity, 57));
  EXPECT_EQ(set.MemoryBytes(), set.TotalSize() * 2 * sizeof(float));
}

TEST(SupportSetTest, QuantizedSerializationRoundTrip) {
  SupportSet set(5, SelectionStrategy::kHerding);
  IdentityEmbedder embedder;
  ASSERT_TRUE(set.SetClass(0, ClassData(0, 9, 0.0f, 23), &embedder, nullptr)
                  .ok());
  ASSERT_TRUE(set.SetClass(1, ClassData(1, 9, 4.0f, 24), &embedder, nullptr)
                  .ok());
  BinaryWriter w;
  set.SerializeQuantized(&w);
  BinaryReader r(w.buffer());
  auto back = SupportSet::DeserializeQuantized(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().capacity_per_class(), 5u);
  EXPECT_EQ(back.value().strategy(), SelectionStrategy::kHerding);
  EXPECT_EQ(back.value().TotalSize(), set.TotalSize());
  Matrix orig = set.ClassExemplars(1).value();
  Matrix copy = back.value().ClassExemplars(1).value();
  ASSERT_TRUE(orig.SameShape(copy));
  // Per-row symmetric int8: worst-case error is max|row|/127 per element.
  for (size_t row = 0; row < orig.rows(); ++row) {
    float max_abs = 0.0f;
    for (size_t j = 0; j < orig.cols(); ++j) {
      max_abs = std::max(max_abs, std::fabs(orig.At(row, j)));
    }
    for (size_t j = 0; j < orig.cols(); ++j) {
      EXPECT_NEAR(copy.At(row, j), orig.At(row, j),
                  max_abs / 127.0f + 1e-6f);
    }
  }
  // Re-quantizing the dequantized rows is exact, so a second quantized
  // serialization must be byte-identical — the bundle-v3 stability property.
  BinaryWriter w2;
  back.value().SerializeQuantized(&w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(SupportSetTest, DeserializeQuantizedRejectsBadScale) {
  for (float bad : {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    BinaryWriter w;
    w.WriteU64(4);                    // capacity
    w.WriteU8(0);                     // strategy
    w.WriteU64(2);                    // dim
    w.WriteU64(1);                    // num_classes
    w.WriteI64(0);                    // class id
    w.WriteU64(0);                    // seen
    w.WriteU64(1);                    // rows
    w.WriteF32(bad);                  // poisoned scale
    w.WriteI8Vector({12, -3});
    BinaryReader r(w.buffer());
    auto set = SupportSet::DeserializeQuantized(&r);
    ASSERT_FALSE(set.ok());
    EXPECT_EQ(set.status().code(), StatusCode::kCorruption);
  }
}

TEST(SupportSetTest, DeserializeQuantizedSurvivesTruncation) {
  SupportSet set(3, SelectionStrategy::kRandom);
  Rng rng(7);
  ASSERT_TRUE(
      set.SetClass(0, ClassData(0, 4, 1.0f, 31), nullptr, &rng).ok());
  BinaryWriter w;
  set.SerializeQuantized(&w);
  const std::string& full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    BinaryReader r(full.data(), len);
    EXPECT_FALSE(SupportSet::DeserializeQuantized(&r).ok())
        << "truncation at " << len << " parsed";
  }
}

// A hand-written support payload: one (id, rows) entry per class, every row
// `dim` wide, in the fp32 (wire v2) or int8 (wire v3) row encoding.
std::string SupportPayload(
    bool int8, uint64_t capacity, uint64_t dim,
    const std::vector<std::pair<int64_t, uint64_t>>& classes) {
  BinaryWriter w;
  w.WriteU64(capacity);
  w.WriteU8(0);  // strategy
  w.WriteU64(dim);
  w.WriteU64(classes.size());
  for (const auto& [id, rows] : classes) {
    w.WriteI64(id);
    w.WriteU64(rows);  // seen
    w.WriteU64(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      if (int8) {
        w.WriteF32(0.5f);
        w.WriteI8Vector(std::vector<int8_t>(dim, 3));
      } else {
        w.WriteF32Vector(std::vector<float>(dim, 1.5f));
      }
    }
  }
  return w.buffer();
}

StatusCode ReadPayloadCode(bool int8, const std::string& bytes) {
  BinaryReader r(bytes);
  return (int8 ? SupportSet::DeserializeQuantized(&r)
               : SupportSet::Deserialize(&r))
      .status()
      .code();
}

// A class id that appears twice used to overwrite the first copy silently.
void ExpectDuplicateClassIdRejected(bool int8) {
  EXPECT_EQ(ReadPayloadCode(int8, SupportPayload(int8, 4, 2, {{3, 2}, {4, 2}})),
            StatusCode::kOk);
  EXPECT_EQ(ReadPayloadCode(int8, SupportPayload(int8, 4, 2, {{3, 2}, {3, 2}})),
            StatusCode::kCorruption);
}

// More rows than the capacity breaks the bound the memory arithmetic (C2)
// rests on; SetClass and AddStreamingSample never write one.
void ExpectRowsOverCapacityRejected(bool int8) {
  EXPECT_EQ(ReadPayloadCode(int8, SupportPayload(int8, 3, 2, {{1, 3}})),
            StatusCode::kOk);
  EXPECT_EQ(ReadPayloadCode(int8, SupportPayload(int8, 3, 2, {{1, 4}})),
            StatusCode::kCorruption);
}

void ExpectDimOverLimitRejected(bool int8) {
  constexpr uint64_t kMaxDim = 1 << 20;
  EXPECT_EQ(ReadPayloadCode(int8, SupportPayload(int8, 1, kMaxDim, {})),
            StatusCode::kOk);
  EXPECT_EQ(ReadPayloadCode(int8, SupportPayload(int8, 1, kMaxDim + 1, {})),
            StatusCode::kCorruption);
}

TEST(SupportSetTest, DeserializeRejectsDuplicateClassId) {
  ExpectDuplicateClassIdRejected(/*int8=*/false);
}

TEST(SupportSetTest, DeserializeQuantizedRejectsDuplicateClassId) {
  ExpectDuplicateClassIdRejected(/*int8=*/true);
}

TEST(SupportSetTest, DeserializeRejectsRowsOverCapacity) {
  ExpectRowsOverCapacityRejected(/*int8=*/false);
}

TEST(SupportSetTest, DeserializeQuantizedRejectsRowsOverCapacity) {
  ExpectRowsOverCapacityRejected(/*int8=*/true);
}

TEST(SupportSetTest, DeserializeRejectsDimOverLimit) {
  ExpectDimOverLimitRejected(/*int8=*/false);
}

TEST(SupportSetTest, DeserializeQuantizedRejectsDimOverLimit) {
  ExpectDimOverLimitRejected(/*int8=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, SupportCapacityTest,
    ::testing::Combine(::testing::Values(1, 5, 57, 200),
                       ::testing::Values(SelectionStrategy::kRandom,
                                         SelectionStrategy::kHerding,
                                         SelectionStrategy::kReservoir)));

}  // namespace
}  // namespace magneto::core
