#include "core/cloud_initializer.h"

#include <gtest/gtest.h>

#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

TEST(CloudInitializerTest, ProducesCompleteBundle) {
  CloudInitializer cloud(testing::SmallCloudConfig());
  CloudReport report;
  auto bundle = cloud.Initialize(testing::SmallCorpus(1),
                                 sensors::ActivityRegistry::BaseActivities(),
                                 &report);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle.value().registry.size(), 5u);
  EXPECT_EQ(bundle.value().support.NumClasses(), 5u);
  EXPECT_EQ(bundle.value().classifier.num_classes(), 5u);
  EXPECT_TRUE(bundle.value().pipeline.fitted());
  EXPECT_GT(bundle.value().backbone.NumParameters(), 0u);
  EXPECT_GT(report.training_windows, 0u);
  EXPECT_EQ(report.bundle_bytes, bundle.value().SerializedBytes());
  // Training must have actually reduced the loss.
  ASSERT_GE(report.train.epochs.size(), 2u);
  EXPECT_LT(report.train.final_embedding_loss(),
            report.train.epochs.front().embedding_loss);
}

TEST(CloudInitializerTest, EmptyCorpusRejected) {
  CloudInitializer cloud(testing::SmallCloudConfig());
  EXPECT_FALSE(
      cloud.Initialize({}, sensors::ActivityRegistry::BaseActivities()).ok());
}

TEST(CloudInitializerTest, UnregisteredLabelRejected) {
  CloudInitializer cloud(testing::SmallCloudConfig());
  auto corpus = testing::SmallCorpus(2, 1, 4.0);
  corpus[0].label = 999;  // not in the registry
  auto bundle =
      cloud.Initialize(corpus, sensors::ActivityRegistry::BaseActivities());
  EXPECT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
}

TEST(CloudInitializerTest, SupportCapacityHonoured) {
  core::CloudConfig config = testing::SmallCloudConfig();
  config.support_capacity = 3;
  CloudInitializer cloud(config);
  auto bundle = cloud.Initialize(testing::SmallCorpus(3),
                                 sensors::ActivityRegistry::BaseActivities());
  ASSERT_TRUE(bundle.ok());
  for (sensors::ActivityId id : bundle.value().support.Classes()) {
    EXPECT_LE(bundle.value().support.ClassSize(id), 3u);
  }
}

TEST(CloudInitializerTest, DeterministicInSeed) {
  CloudInitializer cloud(testing::SmallCloudConfig());
  auto a = cloud.Initialize(testing::SmallCorpus(4),
                            sensors::ActivityRegistry::BaseActivities());
  auto b = cloud.Initialize(testing::SmallCorpus(4),
                            sensors::ActivityRegistry::BaseActivities());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().SerializeToString(), b.value().SerializeToString());
}

TEST(CloudInitializerTest, CustomRegistryAndExtraClassesWork) {
  // The initializer is not hard-wired to the five base activities: any
  // registry/corpus pairing trains, e.g. a subset.
  sensors::ActivityRegistry registry;
  ASSERT_TRUE(registry.RegisterWithId(sensors::kWalk, "Walk").ok());
  ASSERT_TRUE(registry.RegisterWithId(sensors::kRun, "Run").ok());
  sensors::SyntheticGenerator gen(5);
  sensors::ActivityLibrary lib = sensors::DefaultActivityLibrary();
  std::vector<sensors::LabeledRecording> corpus;
  for (int i = 0; i < 3; ++i) {
    corpus.push_back({gen.Generate(lib[sensors::kWalk], 4.0), sensors::kWalk});
    corpus.push_back({gen.Generate(lib[sensors::kRun], 4.0), sensors::kRun});
  }
  CloudInitializer cloud(testing::SmallCloudConfig());
  auto bundle = cloud.Initialize(corpus, registry);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle.value().classifier.num_classes(), 2u);
}

}  // namespace
}  // namespace magneto::core
