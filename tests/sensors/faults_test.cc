#include "testing/faults.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sensors/signal_model.h"
#include "sensors/synthetic_generator.h"

namespace magneto::sensors {
namespace {

using testing::FaultKind;
using testing::FaultSpec;
using testing::InjectFaults;
using testing::RandomFaults;

Recording WalkRecording(double seconds = 4.0) {
  SyntheticGenerator gen(1);
  return gen.Generate(DefaultActivityLibrary()[kWalk], seconds);
}

TEST(FaultsTest, DropoutZeroesTheInterval) {
  Recording rec = WalkRecording();
  FaultSpec fault;
  fault.channel = Channel::kAccX;
  fault.kind = FaultKind::kDropout;
  fault.start_s = 1.0;
  fault.duration_s = 1.0;
  Rng rng(2);
  Recording out = InjectFaults(rec, {fault}, &rng);
  const size_t ch = static_cast<size_t>(Channel::kAccX);
  for (size_t i = 120; i < 240; ++i) {
    EXPECT_FLOAT_EQ(out.samples.At(i, ch), 0.0f) << "sample " << i;
  }
  // Outside the interval: untouched.
  EXPECT_FLOAT_EQ(out.samples.At(0, ch), rec.samples.At(0, ch));
  EXPECT_FLOAT_EQ(out.samples.At(300, ch), rec.samples.At(300, ch));
  // Other channels: untouched.
  EXPECT_FLOAT_EQ(out.samples.At(150, ch + 1), rec.samples.At(150, ch + 1));
}

TEST(FaultsTest, FreezeRepeatsLastGoodValue) {
  Recording rec = WalkRecording();
  FaultSpec fault;
  fault.channel = Channel::kGyroY;
  fault.kind = FaultKind::kFreeze;
  fault.start_s = 2.0;
  fault.duration_s = 1.0;
  Rng rng(3);
  Recording out = InjectFaults(rec, {fault}, &rng);
  const size_t ch = static_cast<size_t>(Channel::kGyroY);
  const float frozen = rec.samples.At(239, ch);
  for (size_t i = 240; i < 360; ++i) {
    EXPECT_FLOAT_EQ(out.samples.At(i, ch), frozen);
  }
}

TEST(FaultsTest, SaturateClipsWithSignPreserved) {
  Recording rec = WalkRecording();
  FaultSpec fault;
  fault.channel = Channel::kAccZ;
  fault.kind = FaultKind::kSaturate;
  fault.start_s = 0.0;
  fault.duration_s = 1.0;
  fault.magnitude = 40.0;
  Rng rng(4);
  Recording out = InjectFaults(rec, {fault}, &rng);
  const size_t ch = static_cast<size_t>(Channel::kAccZ);
  for (size_t i = 0; i < 120; ++i) {
    EXPECT_FLOAT_EQ(std::fabs(out.samples.At(i, ch)), 40.0f);
    EXPECT_EQ(out.samples.At(i, ch) >= 0, rec.samples.At(i, ch) >= 0);
  }
}

TEST(FaultsTest, SpikesInjectLargeImpulses) {
  Recording rec = WalkRecording();
  FaultSpec fault;
  fault.channel = Channel::kMagX;
  fault.kind = FaultKind::kSpikes;
  fault.start_s = 0.0;
  fault.duration_s = 4.0;
  fault.magnitude = 500.0;
  Rng rng(5);
  Recording out = InjectFaults(rec, {fault}, &rng);
  const size_t ch = static_cast<size_t>(Channel::kMagX);
  size_t spikes = 0;
  for (size_t i = 0; i < out.num_samples(); ++i) {
    if (std::fabs(out.samples.At(i, ch)) == 500.0f) ++spikes;
  }
  // ~10% spike rate over 480 samples.
  EXPECT_GT(spikes, 20u);
  EXPECT_LT(spikes, 120u);
}

TEST(FaultsTest, OutOfRangeIntervalsAreClamped) {
  Recording rec = WalkRecording(1.0);
  FaultSpec fault;
  fault.channel = Channel::kAccX;
  fault.kind = FaultKind::kDropout;
  fault.start_s = 0.5;
  fault.duration_s = 100.0;  // beyond the recording
  Rng rng(6);
  Recording out = InjectFaults(rec, {fault}, &rng);
  EXPECT_EQ(out.num_samples(), rec.num_samples());
  EXPECT_FLOAT_EQ(out.samples.At(119, 0), 0.0f);
}

TEST(FaultsTest, RandomFaultsAreWithinBounds) {
  Rng rng(7);
  auto faults = RandomFaults(20, 10.0, &rng);
  EXPECT_EQ(faults.size(), 20u);
  for (const FaultSpec& f : faults) {
    EXPECT_GE(f.start_s, 0.0);
    EXPECT_LE(f.start_s + f.duration_s, 10.0 + 1e-9);
    EXPECT_LT(static_cast<size_t>(f.channel), kNumChannels);
  }
}

TEST(FaultsTest, OriginalRecordingUntouched) {
  Recording rec = WalkRecording(1.0);
  const float before = rec.samples.At(60, 0);
  FaultSpec fault;
  fault.kind = FaultKind::kDropout;
  fault.start_s = 0.0;
  fault.duration_s = 1.0;
  Rng rng(8);
  (void)InjectFaults(rec, {fault}, &rng);
  EXPECT_FLOAT_EQ(rec.samples.At(60, 0), before);
}

}  // namespace
}  // namespace magneto::sensors
