#ifndef MAGNETO_TESTS_TESTING_TEST_HELPERS_H_
#define MAGNETO_TESTS_TESTING_TEST_HELPERS_H_

#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cloud_initializer.h"
#include "core/model_bundle.h"
#include "sensors/signal_model.h"
#include "sensors/synthetic_generator.h"

namespace magneto::testing {

/// `name` under gtest's temp dir, prefixed with this process's pid. Test
/// binaries running at the same time (two builds tested side by side, say)
/// then never overwrite or delete each other's files.
inline std::string UniqueTempPath(const std::string& name) {
  return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

/// A deliberately small cloud configuration so a full pretrain fits in a
/// unit-test time budget (tiny backbone, few epochs, small support set).
inline core::CloudConfig SmallCloudConfig() {
  core::CloudConfig config;
  config.backbone_dims = {32, 16};
  config.train.epochs = 8;
  config.train.batch_size = 32;
  config.train.learning_rate = 2e-3;
  config.train.seed = 21;
  config.support_capacity = 12;
  config.seed = 31;
  return config;
}

/// Synthetic stand-in for the paper's initial corpus: `per_class` recordings
/// of `seconds` seconds for each of the five base activities.
inline std::vector<sensors::LabeledRecording> SmallCorpus(
    uint64_t seed, size_t per_class = 2, double seconds = 4.0) {
  sensors::SyntheticGenerator gen(seed);
  return gen.GenerateDataset(sensors::DefaultActivityLibrary(), per_class,
                             seconds);
}

/// Complete small pretrained bundle (pipeline + backbone + support + NCM).
inline core::ModelBundle SmallPretrainedBundle(uint64_t seed = 41) {
  core::CloudInitializer cloud(SmallCloudConfig());
  auto bundle = cloud.Initialize(SmallCorpus(seed),
                                 sensors::ActivityRegistry::BaseActivities());
  MAGNETO_CHECK(bundle.ok());
  return std::move(bundle).value();
}

}  // namespace magneto::testing

#endif  // MAGNETO_TESTS_TESTING_TEST_HELPERS_H_
