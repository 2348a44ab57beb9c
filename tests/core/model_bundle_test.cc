#include "core/model_bundle.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

// Wire layout shared by v1 and v2: magic(4) | version u32 | body length u64 |
// body | CRC u32. v2's CRC covers version+length+body; v1's covered the body
// only.
constexpr size_t kHeaderBytes = 16;
constexpr size_t kFooterBytes = 4;

/// Rebuilds a bundle image with an arbitrary version/body and a *valid* v2
/// CRC, so version/length error paths can be exercised on well-formed input.
std::string BuildImage(uint32_t version, uint64_t declared_body_size,
                       const std::string& body) {
  BinaryWriter out;
  out.WriteBytes("MGTO", 4);
  out.WriteU32(version);
  out.WriteU64(declared_body_size);
  out.WriteBytes(body.data(), body.size());
  out.WriteU32(Crc32(out.buffer().data() + 4, out.size() - 4));
  return out.TakeBuffer();
}

class ModelBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new ModelBundle(testing::SmallPretrainedBundle(202));
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  static ModelBundle* bundle_;
};

ModelBundle* ModelBundleTest::bundle_ = nullptr;

TEST_F(ModelBundleTest, RoundTripPreservesEverything) {
  const std::string bytes = bundle_->SerializeToString();
  auto back = ModelBundle::FromString(bytes);
  ASSERT_TRUE(back.ok());

  EXPECT_EQ(back.value().registry.size(), bundle_->registry.size());
  EXPECT_EQ(back.value().support.TotalSize(), bundle_->support.TotalSize());
  EXPECT_EQ(back.value().classifier.num_classes(),
            bundle_->classifier.num_classes());
  EXPECT_EQ(back.value().backbone.NumParameters(),
            bundle_->backbone.NumParameters());

  // The round-tripped model must predict identically.
  sensors::SyntheticGenerator gen(5);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 1.0);
  EdgeModel m1(bundle_->pipeline, bundle_->backbone.Clone(),
               bundle_->classifier, bundle_->registry);
  EdgeModel m2 = std::move(back).value().ToEdgeModel();
  auto p1 = m1.InferWindow(rec.samples);
  auto p2 = m2.InferWindow(rec.samples);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().prediction.activity, p2.value().prediction.activity);
  EXPECT_NEAR(p1.value().prediction.distance, p2.value().prediction.distance,
              1e-6);
}

TEST_F(ModelBundleTest, RejectsBadMagic) {
  std::string bytes = bundle_->SerializeToString();
  bytes[0] = 'X';
  auto res = ModelBundle::FromString(bytes);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST_F(ModelBundleTest, RejectsFlippedPayloadBit) {
  std::string bytes = bundle_->SerializeToString();
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt the body
  auto res = ModelBundle::FromString(bytes);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST_F(ModelBundleTest, RejectsTruncation) {
  std::string bytes = bundle_->SerializeToString();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(ModelBundle::FromString(bytes).ok());
  EXPECT_FALSE(ModelBundle::FromString("MG").ok());
  EXPECT_FALSE(ModelBundle::FromString("").ok());
}

TEST_F(ModelBundleTest, RejectsUnsupportedVersion) {
  std::string bytes = bundle_->SerializeToString();
  bytes[4] = 99;  // version field follows the 4-byte magic
  EXPECT_FALSE(ModelBundle::FromString(bytes).ok());
}

TEST_F(ModelBundleTest, RejectsTrailingGarbageInsideBody) {
  // Extend the declared body and append bytes: the parser must notice.
  std::string bytes = bundle_->SerializeToString();
  bytes.insert(bytes.size() - 4, std::string(8, '\0'));
  // (length field now disagrees with the actual structure)
  EXPECT_FALSE(ModelBundle::FromString(bytes).ok());
}

TEST_F(ModelBundleTest, FileRoundTrip) {
  const std::string path =
      testing::UniqueTempPath("magneto_bundle_test.magneto");
  ASSERT_TRUE(bundle_->SaveToFile(path).ok());
  auto back = ModelBundle::LoadFromFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().registry.size(), 5u);
  std::remove(path.c_str());
}

TEST_F(ModelBundleTest, LoadMissingFileFails) {
  EXPECT_EQ(ModelBundle::LoadFromFile("/no/such/file.magneto").status().code(),
            StatusCode::kIoError);
}

TEST_F(ModelBundleTest, OverflowingLengthHeaderRejected) {
  // Regression: the v1 bounds check used to be written as
  // `remaining < body_size + 4`, which wraps when body_size is near
  // UINT64_MAX and walks the reader far out of bounds. The subtraction-form
  // check must reject this cleanly (ASan-verified in scripts/check.sh).
  BinaryWriter w;
  w.WriteBytes("MGTO", 4);
  w.WriteU32(1);  // legacy version: length field locates the CRC
  w.WriteU64(std::numeric_limits<uint64_t>::max() - 2);
  w.WriteBytes("payloadpayload", 14);
  auto res = ModelBundle::FromString(w.TakeBuffer());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);

  // Same trap at every other wrap-around boundary.
  for (uint64_t lie : {std::numeric_limits<uint64_t>::max(),
                       std::numeric_limits<uint64_t>::max() - 3,
                       uint64_t{1} << 63}) {
    BinaryWriter crafted;
    crafted.WriteBytes("MGTO", 4);
    crafted.WriteU32(1);
    crafted.WriteU64(lie);
    crafted.WriteBytes("xxxxxxxx", 8);
    EXPECT_EQ(ModelBundle::FromString(crafted.TakeBuffer()).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(ModelBundleTest, V1ImageRejectedAsCorruption) {
  // Reconstruct a v1 image (CRC over the body only) from the v2 bytes. The
  // v1 read path is retired: such an image must fail closed, not load.
  const std::string v2 = bundle_->SerializeToString();
  const std::string body =
      v2.substr(kHeaderBytes, v2.size() - kHeaderBytes - kFooterBytes);
  BinaryWriter w;
  w.WriteBytes("MGTO", 4);
  w.WriteU32(1);
  w.WriteU64(body.size());
  w.WriteBytes(body.data(), body.size());
  w.WriteU32(Crc32(body.data(), body.size()));
  auto back = ModelBundle::FromString(w.TakeBuffer());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST_F(ModelBundleTest, HeaderBitFlipReportsChecksumMismatch) {
  // v2's CRC covers the version and length fields, so header damage must
  // surface as a checksum error — not as a misleading "unsupported version"
  // or "truncated body".
  const std::string clean = bundle_->SerializeToString();
  for (size_t offset = 4; offset < kHeaderBytes; ++offset) {
    std::string bytes = clean;
    bytes[offset] ^= 0x04;
    auto res = ModelBundle::FromString(bytes);
    ASSERT_FALSE(res.ok()) << "header offset " << offset;
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
    EXPECT_NE(res.status().message().find("checksum"), std::string::npos)
        << "offset " << offset << ": " << res.status().message();
  }
}

TEST_F(ModelBundleTest, VersionAndLengthErrorsFireOnWellFormedInput) {
  // With a freshly recomputed CRC, the specific error paths are reachable.
  const std::string v2 = bundle_->SerializeToString();
  const std::string body =
      v2.substr(kHeaderBytes, v2.size() - kHeaderBytes - kFooterBytes);

  auto bad_version = ModelBundle::FromString(BuildImage(99, body.size(), body));
  ASSERT_FALSE(bad_version.ok());
  EXPECT_NE(bad_version.status().message().find("unsupported bundle version"),
            std::string::npos)
      << bad_version.status().message();

  auto bad_length =
      ModelBundle::FromString(BuildImage(2, body.size() + 8, body));
  ASSERT_FALSE(bad_length.ok());
  EXPECT_NE(bad_length.status().message().find("truncated bundle body"),
            std::string::npos)
      << bad_length.status().message();
}

TEST_F(ModelBundleTest, RejectsHostileSegmentation) {
  // The body opens with the pipeline config: denoise (u8 method, u64 window,
  // f64 alpha), then segmentation (u64 window_samples, u64 stride). Rewrite
  // the segmentation fields and re-seal the image with a valid CRC, so only
  // the config reader stands between the bytes and an EdgeRuntime.
  const std::string v2 = bundle_->SerializeToString();
  const std::string body =
      v2.substr(kHeaderBytes, v2.size() - kHeaderBytes - kFooterBytes);
  constexpr size_t kSegmentationOffset = 1 + 8 + 8;
  auto patched_at = [&](size_t offset, const BinaryWriter& fields) {
    std::string patched = body;
    patched.replace(offset, fields.size(), fields.buffer());
    return ModelBundle::FromString(BuildImage(2, patched.size(), patched));
  };
  auto with_segmentation = [&](uint64_t window, uint64_t stride) {
    BinaryWriter fields;
    fields.WriteU64(window);
    fields.WriteU64(stride);
    return patched_at(kSegmentationOffset, fields);
  };
  // The offset is right: a sane rewrite loads and carries the new stride.
  auto sane = with_segmentation(120, 60);
  ASSERT_TRUE(sane.ok()) << sane.status();
  EXPECT_EQ(sane.value().pipeline.config().segmentation.stride, 60u);

  const std::pair<uint64_t, uint64_t> kHostile[] = {
      {120, 0}, {1, 120}, {0, 120}, {(uint64_t{1} << 20) + 1, 120},
      {120, uint64_t{1} << 40}};
  for (const auto& [window, stride] : kHostile) {
    auto res = with_segmentation(window, stride);
    ASSERT_FALSE(res.ok()) << window << "/" << stride;
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
    EXPECT_NE(res.status().message().find("segmentation"), std::string::npos)
        << res.status().message();
  }

  // The config ends with the normalization byte, the feature-family byte
  // (0, the 80 statistical features: the only family) and the f64 sample
  // rate every writer sets to 120. Any other family or rate is Corruption.
  constexpr size_t kFeaturesOffset = kSegmentationOffset + 8 + 8 + 1;
  for (uint8_t features : {1, 2, 255}) {
    BinaryWriter fields;
    fields.WriteU8(features);
    auto res = patched_at(kFeaturesOffset, fields);
    ASSERT_FALSE(res.ok()) << int{features};
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
    EXPECT_NE(res.status().message().find("feature family"), std::string::npos)
        << res.status().message();
  }
  for (double rate : {60.0, 0.0, 120.0 + 1e-9,
                      std::numeric_limits<double>::quiet_NaN()}) {
    BinaryWriter fields;
    fields.WriteF64(rate);
    auto res = patched_at(kFeaturesOffset + 1, fields);
    ASSERT_FALSE(res.ok()) << rate;
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
    EXPECT_NE(res.status().message().find("sample rate"), std::string::npos)
        << res.status().message();
  }
}

TEST_F(ModelBundleTest, RejectsBackboneWhoseWidthsDoNotChain) {
  // The CRC seals whatever the writer wrote; it does not vouch that the
  // backbone can run. Here the second Linear reads 5 columns where the
  // first produces 6. The load must fail, so a checkpoint load can fall
  // back, instead of succeeding and aborting at the first window.
  Rng rng(9);
  nn::Sequential broken;
  broken.Add(
      std::make_unique<nn::Linear>(bundle_->backbone.InputDim(), 6, &rng));
  broken.Add(std::make_unique<nn::Relu>());
  broken.Add(std::make_unique<nn::Linear>(5, 3, &rng));
  std::swap(bundle_->backbone, broken);
  const std::string image = bundle_->SerializeToString();
  std::swap(bundle_->backbone, broken);
  auto res = ModelBundle::FromString(image);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
  EXPECT_NE(res.status().message().find("width"), std::string::npos)
      << res.status().message();
}

/// `bundle`'s image with its backbone swapped for `backbone`.
std::string ImageWithBackbone(ModelBundle* bundle, nn::Sequential* backbone) {
  std::swap(bundle->backbone, *backbone);
  std::string image = bundle->SerializeToString();
  std::swap(bundle->backbone, *backbone);
  return image;
}

/// `bundle`'s image with its pipeline section written from `config` and
/// `normalizer`, sealed with a valid CRC.
std::string ImageWithPipeline(const ModelBundle& bundle,
                              const preprocess::PipelineConfig& config,
                              const preprocess::Normalizer& normalizer) {
  BinaryWriter body;
  config.Serialize(&body);
  normalizer.Serialize(&body);
  bundle.backbone.Serialize(&body);
  bundle.classifier.Serialize(&body);
  bundle.registry.Serialize(&body);
  bundle.support.Serialize(&body);
  return BuildImage(2, body.size(), body.buffer());
}

void ExpectCorruption(const std::string& image, const std::string& word) {
  auto res = ModelBundle::FromString(image);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
  EXPECT_NE(res.status().message().find(word), std::string::npos)
      << res.status().message();
}

TEST_F(ModelBundleTest, RejectsBackboneWhoseOutputIsNotTheClassifierWidth) {
  // A backbone that chains and reads the 80 features, but embeds into 7
  // dimensions where the prototypes have 16: every window would fail.
  Rng rng(3);
  nn::Sequential narrow;
  narrow.Add(std::make_unique<nn::Linear>(preprocess::kNumFeatures, 7, &rng));
  ASSERT_NE(bundle_->classifier.embedding_dim(), 7u);
  ExpectCorruption(ImageWithBackbone(bundle_, &narrow), "embedding width");
}

TEST_F(ModelBundleTest, RejectsBackboneWhoseInputIsNotTheFeatureWidth) {
  Rng rng(4);
  nn::Sequential wide;
  wide.Add(std::make_unique<nn::Linear>(
      preprocess::kNumFeatures + 1, bundle_->classifier.embedding_dim(),
      &rng));
  ExpectCorruption(ImageWithBackbone(bundle_, &wide), "feature width");
}

TEST_F(ModelBundleTest, RejectsNormalizerThatDisagreesWithTheConfig) {
  const preprocess::PipelineConfig config = bundle_->pipeline.config();
  const preprocess::Normalizer& norm = bundle_->pipeline.normalizer();
  ASSERT_EQ(config.normalization, preprocess::NormalizationMethod::kZScore);
  // The sections as written load, so the rewrites below are what fails.
  ASSERT_TRUE(
      ModelBundle::FromString(ImageWithPipeline(*bundle_, config, norm)).ok());

  preprocess::PipelineConfig min_max = config;
  min_max.normalization = preprocess::NormalizationMethod::kMinMax;
  ExpectCorruption(ImageWithPipeline(*bundle_, min_max, norm), "normalizer");

  sensors::FeatureDataset narrow;
  narrow.Append(std::vector<float>(preprocess::kNumFeatures - 1, 1.0f), 0);
  narrow.Append(std::vector<float>(preprocess::kNumFeatures - 1, 2.0f), 1);
  auto fitted =
      preprocess::Normalizer::Fit(preprocess::NormalizationMethod::kZScore,
                                  narrow);
  ASSERT_TRUE(fitted.ok());
  ExpectCorruption(ImageWithPipeline(*bundle_, config, fitted.value()),
                   "normalizer");
}

TEST_F(ModelBundleTest, LoadWithFallbackSkipsBundleWhoseSectionsDisagree) {
  // A checkpoint whose sections disagree is as unusable as a torn one, so
  // the load takes the last-known-good copy.
  Rng rng(3);
  nn::Sequential narrow;
  narrow.Add(std::make_unique<nn::Linear>(preprocess::kNumFeatures, 7, &rng));
  const std::string primary =
      testing::UniqueTempPath("magneto_fb_mismatch.magneto");
  const std::string fallback =
      testing::UniqueTempPath("magneto_fb_mismatch_lkg.magneto");
  ASSERT_TRUE(WriteFile(primary, ImageWithBackbone(bundle_, &narrow)).ok());
  ASSERT_TRUE(bundle_->SaveToFile(fallback).ok());
  bool used_fallback = false;
  auto res =
      ModelBundle::LoadFromFileWithFallback(primary, fallback, &used_fallback);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(res.value().backbone.InputDim(), bundle_->backbone.InputDim());
  std::remove(primary.c_str());
  std::remove(fallback.c_str());
}

TEST_F(ModelBundleTest, FuzzEveryTruncationIsRejected) {
  // Every prefix of a valid image must parse as corruption — never crash,
  // never read out of bounds (the ASan leg of check.sh runs this test).
  const std::string bytes = bundle_->SerializeToString();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto res = ModelBundle::FromString(bytes.substr(0, len));
    ASSERT_FALSE(res.ok()) << "truncated to " << len;
    ASSERT_EQ(res.status().code(), StatusCode::kCorruption) << len;
  }
}

TEST_F(ModelBundleTest, FuzzSeededBitFlipsAreRejected) {
  const std::string clean = bundle_->SerializeToString();
  Rng rng(0xB17F11F5);
  for (int trial = 0; trial < 512; ++trial) {
    std::string bytes = clean;
    const size_t offset = rng.Index(bytes.size());
    bytes[offset] ^= static_cast<char>(1u << rng.UniformInt(0, 7));
    auto res = ModelBundle::FromString(bytes);
    ASSERT_FALSE(res.ok()) << "flip at " << offset;
    ASSERT_EQ(res.status().code(), StatusCode::kCorruption) << offset;
  }
}

TEST_F(ModelBundleTest, SaveIsAtomicNoTempLeftBehind) {
  const std::string path =
      testing::UniqueTempPath("magneto_bundle_atomic.magneto");
  ASSERT_TRUE(bundle_->SaveToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(AtomicTempPath(path)));
  EXPECT_TRUE(ModelBundle::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(ModelBundleTest, LoadWithFallbackPrefersPrimary) {
  const std::string primary =
      testing::UniqueTempPath("magneto_fb_primary.magneto");
  const std::string fallback =
      testing::UniqueTempPath("magneto_fb_lkg.magneto");
  ASSERT_TRUE(bundle_->SaveToFile(primary).ok());
  ASSERT_TRUE(bundle_->SaveToFile(fallback).ok());
  bool used_fallback = true;
  auto res =
      ModelBundle::LoadFromFileWithFallback(primary, fallback, &used_fallback);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(used_fallback);
  std::remove(primary.c_str());
  std::remove(fallback.c_str());
}

TEST_F(ModelBundleTest, LoadWithFallbackRecoversFromCorruptPrimary) {
  const std::string primary =
      testing::UniqueTempPath("magneto_fb_corrupt.magneto");
  const std::string fallback =
      testing::UniqueTempPath("magneto_fb_good.magneto");
  ASSERT_TRUE(WriteFile(primary, "MGTO garbage, not a bundle").ok());
  ASSERT_TRUE(bundle_->SaveToFile(fallback).ok());
  bool used_fallback = false;
  auto res =
      ModelBundle::LoadFromFileWithFallback(primary, fallback, &used_fallback);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(res.value().registry.size(), bundle_->registry.size());
  std::remove(primary.c_str());
  std::remove(fallback.c_str());
}

TEST_F(ModelBundleTest, LoadWithFallbackReportsBothFailures) {
  auto res = ModelBundle::LoadFromFileWithFallback(
      "/no/such/primary.magneto", "/no/such/fallback.magneto", nullptr);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find("fallback"), std::string::npos);
}

TEST_F(ModelBundleTest, SerializedSizeIsStable) {
  EXPECT_EQ(bundle_->SerializedBytes(), bundle_->SerializeToString().size());
  // The small test bundle should be well under the paper's 5 MB budget.
  EXPECT_LT(bundle_->SerializedBytes(), 5u * 1024 * 1024);
}

TEST_F(ModelBundleTest, WireVersionDefaultsToV2AndIsPreserved) {
  EXPECT_EQ(bundle_->wire_version, kBundleWireV2);
  auto back = ModelBundle::FromString(bundle_->SerializeToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().wire_version, kBundleWireV2);
}

TEST_F(ModelBundleTest, V3QuantizedRoundTrip) {
  const std::string v2 = bundle_->SerializeToString();
  auto copy = ModelBundle::FromString(v2);
  ASSERT_TRUE(copy.ok());
  copy.value().wire_version = kBundleWireV3;
  const std::string v3 = copy.value().SerializeToString();
  // Only the support set is int8 here (the backbone stays fp32 unless
  // compressed), but v3 must already be strictly smaller.
  EXPECT_LT(v3.size(), v2.size());

  auto back = ModelBundle::FromString(v3);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().wire_version, kBundleWireV3);
  EXPECT_EQ(back.value().support.TotalSize(), bundle_->support.TotalSize());
  EXPECT_EQ(back.value().registry.size(), bundle_->registry.size());

  // Save -> load -> save stability: re-quantizing dequantized support rows
  // is exact and the prototypes travel as fp32, so a loaded v3 bundle
  // re-serializes byte-identical (checkpoints of a quantized device cannot
  // drift).
  EXPECT_EQ(back.value().SerializeToString(), v3);
}

TEST_F(ModelBundleTest, V3PrototypesRoundTripBitForBit) {
  auto copy = ModelBundle::FromString(bundle_->SerializeToString());
  ASSERT_TRUE(copy.ok());
  copy.value().wire_version = kBundleWireV3;
  auto back = ModelBundle::FromString(copy.value().SerializeToString());
  ASSERT_TRUE(back.ok()) << back.status();
  const NcmClassifier& before = copy.value().classifier;
  const NcmClassifier& after = back.value().classifier;
  ASSERT_GT(before.num_classes(), 0u);
  ASSERT_EQ(after.Classes(), before.Classes());
  for (sensors::ActivityId id : before.Classes()) {
    const std::vector<float> want = before.Prototype(id).value();
    const std::vector<float> got = after.Prototype(id).value();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
              0)
        << "prototype of class " << id;
  }
}

TEST_F(ModelBundleTest, V3RejectsTruncationAndBitFlips) {
  auto copy = ModelBundle::FromString(bundle_->SerializeToString());
  ASSERT_TRUE(copy.ok());
  copy.value().wire_version = kBundleWireV3;
  const std::string v3 = copy.value().SerializeToString();
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes = v3.substr(0, rng.Index(v3.size()));
    EXPECT_FALSE(ModelBundle::FromString(bytes).ok());
  }
  size_t parsed_ok = 0;
  for (int trial = 0; trial < 120; ++trial) {
    std::string bytes = v3;
    bytes[rng.Index(bytes.size())] ^= static_cast<char>(1 + rng.Index(255));
    if (ModelBundle::FromString(bytes).ok()) ++parsed_ok;
  }
  EXPECT_LT(parsed_ok, 3u);  // CRC catches essentially everything
}

}  // namespace
}  // namespace magneto::core
