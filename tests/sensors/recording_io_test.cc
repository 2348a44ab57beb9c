#include "sensors/recording_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "sensors/signal_model.h"
#include "testing/test_helpers.h"

namespace magneto::sensors {
namespace {

std::string TempPath(const char* name) {
  return testing::UniqueTempPath(name);
}

std::vector<LabeledRecording> Campaign(uint64_t seed) {
  SyntheticGenerator gen(seed);
  return gen.GenerateDataset(DefaultActivityLibrary(), 1, 2.0);
}

TEST(RecordingIoTest, SingleRecordingRoundTrip) {
  SyntheticGenerator gen(1);
  Recording rec = gen.Generate(DefaultActivityLibrary()[kWalk], 1.5);
  BinaryWriter w;
  SerializeRecording(rec, &w);
  BinaryReader r(w.buffer());
  auto back = DeserializeRecording(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().sample_rate_hz, rec.sample_rate_hz);
  ASSERT_TRUE(back.value().samples.SameShape(rec.samples));
  for (size_t i = 0; i < rec.samples.size(); ++i) {
    EXPECT_FLOAT_EQ(back.value().samples.data()[i], rec.samples.data()[i]);
  }
}

TEST(RecordingIoTest, CampaignFileRoundTrip) {
  const std::string path = TempPath("magneto_campaign_test.msns");
  auto campaign = Campaign(2);
  ASSERT_TRUE(SaveRecordings(campaign, path).ok());
  auto back = LoadRecordings(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back.value().size(), campaign.size());
  for (size_t i = 0; i < campaign.size(); ++i) {
    EXPECT_EQ(back.value()[i].label, campaign[i].label);
    EXPECT_EQ(back.value()[i].recording.num_samples(),
              campaign[i].recording.num_samples());
    EXPECT_FLOAT_EQ(back.value()[i].recording.samples.At(10, 3),
                    campaign[i].recording.samples.At(10, 3));
  }
  std::remove(path.c_str());
}

TEST(RecordingIoTest, EmptyCampaignRoundTrips) {
  const std::string path = TempPath("magneto_empty_campaign.msns");
  ASSERT_TRUE(SaveRecordings({}, path).ok());
  auto back = LoadRecordings(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
  std::remove(path.c_str());
}

TEST(RecordingIoTest, CorruptionDetected) {
  const std::string path = TempPath("magneto_corrupt_campaign.msns");
  ASSERT_TRUE(SaveRecordings(Campaign(3), path).ok());
  auto bytes = ReadFile(path).ValueOrDie();
  bytes[bytes.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto back = LoadRecordings(path);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(RecordingIoTest, WrongMagicRejected) {
  const std::string path = TempPath("magneto_not_a_campaign.bin");
  ASSERT_TRUE(WriteFile(path, "definitely not sensor data").ok());
  EXPECT_FALSE(LoadRecordings(path).ok());
  std::remove(path.c_str());
}

TEST(RecordingIoTest, TruncationRejected) {
  const std::string path = TempPath("magneto_truncated_campaign.msns");
  ASSERT_TRUE(SaveRecordings(Campaign(4), path).ok());
  auto bytes = ReadFile(path).ValueOrDie();
  ASSERT_TRUE(WriteFile(path, bytes.substr(0, bytes.size() / 3)).ok());
  EXPECT_FALSE(LoadRecordings(path).ok());
  std::remove(path.c_str());
}

TEST(FeatureCsvTest, WritesHeaderAndRows) {
  const std::string path = TempPath("magneto_features.csv");
  FeatureDataset ds;
  ds.Append({1.5f, -2.0f}, 0);
  ds.Append({0.25f, 3.0f}, 4);
  ASSERT_TRUE(WriteFeatureCsv(ds, {"alpha", "beta"}, path).ok());
  const std::string csv = ReadFile(path).ValueOrDie();
  EXPECT_EQ(csv,
            "label,alpha,beta\n"
            "0,1.5,-2\n"
            "4,0.25,3\n");
  std::remove(path.c_str());
}

TEST(FeatureCsvTest, DefaultColumnNames) {
  const std::string path = TempPath("magneto_features_default.csv");
  FeatureDataset ds;
  ds.Append({1.0f}, 2);
  ASSERT_TRUE(WriteFeatureCsv(ds, {}, path).ok());
  const std::string csv = ReadFile(path).ValueOrDie();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "label,f0");
  std::remove(path.c_str());
}

TEST(FeatureCsvTest, NameCountMismatchRejected) {
  FeatureDataset ds;
  ds.Append({1.0f, 2.0f}, 0);
  EXPECT_FALSE(
      WriteFeatureCsv(ds, {"only_one"}, TempPath("magneto_bad_header.csv"))
          .ok());
}

TEST(RecordingIoTest, MissingFileIsIoError) {
  auto back = LoadRecordings("/no/such/campaign.msns");
  EXPECT_EQ(back.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace magneto::sensors
