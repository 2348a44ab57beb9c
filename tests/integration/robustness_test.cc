#include <cmath>

#include <gtest/gtest.h>

#include "magneto.h"
#include "testing/faults.h"
#include "testing/test_helpers.h"

namespace magneto {
namespace {

/// Failure-injection suite: the platform must degrade, not crash, when the
/// sensor stack misbehaves.

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new core::ModelBundle(testing::SmallPretrainedBundle(801));
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  core::EdgeModel MakeModel() {
    return core::EdgeModel(bundle_->pipeline, bundle_->backbone.Clone(),
                           bundle_->classifier, bundle_->registry);
  }
  static core::ModelBundle* bundle_;
};

core::ModelBundle* RobustnessTest::bundle_ = nullptr;

TEST_F(RobustnessTest, PipelineStaysFiniteUnderEveryFaultKind) {
  core::EdgeModel model = MakeModel();
  sensors::SyntheticGenerator gen(1);
  Rng rng(2);
  for (auto kind :
       {testing::FaultKind::kDropout, testing::FaultKind::kFreeze,
        testing::FaultKind::kSaturate, testing::FaultKind::kSpikes}) {
    sensors::Recording rec = gen.Generate(
        sensors::DefaultActivityLibrary()[sensors::kWalk], 4.0);
    testing::FaultSpec fault;
    fault.kind = kind;
    fault.channel = sensors::Channel::kAccX;
    fault.start_s = 0.0;
    fault.duration_s = 4.0;
    sensors::Recording faulty = testing::InjectFaults(rec, {fault}, &rng);
    auto windows = model.pipeline().Process(faulty);
    ASSERT_TRUE(windows.ok());
    for (const auto& features : windows.value()) {
      for (float f : features) {
        ASSERT_TRUE(std::isfinite(f))
            << "non-finite feature under fault kind "
            << static_cast<int>(kind);
      }
    }
    // Inference still returns a known class.
    auto preds = model.InferRecording(faulty);
    ASSERT_TRUE(preds.ok());
    for (const auto& p : preds.value()) {
      EXPECT_TRUE(model.registry().Contains(p.prediction.activity));
    }
  }
}

TEST_F(RobustnessTest, HeavyRandomFaultsDegradeGracefully) {
  core::EdgeModel model = MakeModel();
  sensors::SyntheticGenerator gen(3);
  Rng rng(4);
  learn::ConfusionMatrix clean_cm, faulty_cm;
  for (const auto& [id, signal] : sensors::DefaultActivityLibrary()) {
    sensors::Recording rec = gen.Generate(signal, 4.0);
    auto clean = model.InferRecording(rec);
    ASSERT_TRUE(clean.ok());
    for (const auto& p : clean.value()) clean_cm.Add(id, p.prediction.activity);

    sensors::Recording faulty =
        testing::InjectFaults(rec, testing::RandomFaults(6, 4.0, &rng), &rng);
    auto preds = model.InferRecording(faulty);
    ASSERT_TRUE(preds.ok());
    for (const auto& p : preds.value()) {
      faulty_cm.Add(id, p.prediction.activity);
    }
  }
  // Faults may cost accuracy but the system keeps answering every window.
  EXPECT_EQ(faulty_cm.total(), clean_cm.total());
}

TEST_F(RobustnessTest, ExtremeInputValuesDoNotPoisonTheModel) {
  core::EdgeModel model = MakeModel();
  // A window of huge values (sensor range bug).
  Matrix window(120, sensors::kNumChannels);
  window.Fill(1e6f);
  auto pred = model.InferWindow(window);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(std::isfinite(pred.value().prediction.distance));
  EXPECT_TRUE(std::isfinite(pred.value().prediction.confidence));
}

TEST_F(RobustnessTest, AllZeroWindowClassifies) {
  core::EdgeModel model = MakeModel();
  Matrix window(120, sensors::kNumChannels);
  auto pred = model.InferWindow(window);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(model.registry().Contains(pred.value().prediction.activity));
}

TEST_F(RobustnessTest, SmoothedRuntimeRidesThroughFaultBursts) {
  core::ModelBundle bundle = testing::SmallPretrainedBundle(802);
  core::SupportSet support = std::move(bundle.support);
  core::EdgeModel model = std::move(bundle).ToEdgeModel();
  core::EdgeRuntime runtime(std::move(model), std::move(support), {});
  runtime.EnableSmoothing({.window = 5});

  sensors::SyntheticGenerator gen(5);
  Rng rng(6);
  sensors::Recording rec = gen.Generate(
      sensors::DefaultActivityLibrary()[sensors::kRun], 10.0);
  // A one-second total accelerometer dropout mid-stream.
  std::vector<testing::FaultSpec> faults;
  for (auto ch : {sensors::Channel::kAccX, sensors::Channel::kAccY,
                  sensors::Channel::kAccZ}) {
    testing::FaultSpec f;
    f.channel = ch;
    f.kind = testing::FaultKind::kDropout;
    f.start_s = 5.0;
    f.duration_s = 1.0;
    faults.push_back(f);
  }
  sensors::Recording faulty = testing::InjectFaults(rec, faults, &rng);

  size_t correct = 0, total = 0;
  for (size_t i = 0; i < faulty.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = faulty.samples.At(i, c);
    }
    auto pred = runtime.PushFrame(frame);
    ASSERT_TRUE(pred.ok());
    if (pred.value().has_value()) {
      ++total;
      if (pred.value()->prediction.activity == sensors::kRun) ++correct;
    }
  }
  ASSERT_EQ(total, 10u);
  // With smoothing, the single bad window cannot flip more than itself.
  EXPECT_GE(correct, 9u);
}

}  // namespace
}  // namespace magneto
