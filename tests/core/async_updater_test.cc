#include "core/async_updater.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/edge_runtime.h"
#include "sensors/user_profile.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

IncrementalOptions FastOptions() {
  IncrementalOptions options;
  options.train.epochs = 5;
  options.train.batch_size = 32;
  options.train.distill_weight = 1.0;
  options.train.seed = 7;
  return options;
}

struct Deployment {
  EdgeModel model;
  SupportSet support;
};

Deployment Deploy(uint64_t seed) {
  ModelBundle bundle = testing::SmallPretrainedBundle(seed);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  return {std::move(model), std::move(support)};
}

std::vector<sensors::Recording> Capture(uint64_t seed) {
  sensors::SyntheticGenerator gen(seed);
  return {gen.Generate(sensors::MakeGestureModel(seed), 20.0)};
}

TEST(AsyncUpdaterTest, BackgroundLearnProducesUsableModel) {
  Deployment dep = Deploy(701);
  AsyncUpdater updater(FastOptions());
  ASSERT_TRUE(
      updater.StartLearn(dep.model, dep.support, "Gesture Hi", Capture(1))
          .ok());
  EXPECT_TRUE(updater.busy());

  // Foreground inference continues on the unmodified model meanwhile.
  sensors::SyntheticGenerator gen(2);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 1.0);
  EXPECT_TRUE(dep.model.InferWindow(rec.samples).ok());
  EXPECT_EQ(dep.model.registry().size(), 5u);  // snapshot isolation

  auto outcome = updater.Take();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(updater.busy());
  EXPECT_EQ(outcome.value().model.registry().size(), 6u);
  EXPECT_TRUE(outcome.value().support.HasClass(outcome.value().report.activity));
  // Hot swap.
  dep.model = std::move(outcome.value().model);
  dep.support = std::move(outcome.value().support);
  EXPECT_TRUE(dep.model.registry().IdOf("Gesture Hi").ok());
}

TEST(AsyncUpdaterTest, OnlyOneUpdateInFlight) {
  Deployment dep = Deploy(702);
  AsyncUpdater updater(FastOptions());
  ASSERT_TRUE(
      updater.StartLearn(dep.model, dep.support, "A", Capture(3)).ok());
  EXPECT_EQ(updater.StartLearn(dep.model, dep.support, "B", Capture(4)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(updater.Take().ok());
  // After Take, a new update may start.
  EXPECT_TRUE(
      updater.StartLearn(dep.model, dep.support, "B", Capture(5)).ok());
  EXPECT_TRUE(updater.Take().ok());
}

TEST(AsyncUpdaterTest, TrainingErrorIsReturnedNotSwallowed) {
  Deployment dep = Deploy(703);
  AsyncUpdater updater(FastOptions());
  // Duplicate name fails inside the worker.
  ASSERT_TRUE(
      updater.StartLearn(dep.model, dep.support, "Walk", Capture(6)).ok());
  auto outcome = updater.Take();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(updater.busy());
}

TEST(AsyncUpdaterTest, TakeWithoutStartFails) {
  AsyncUpdater updater(FastOptions());
  EXPECT_EQ(updater.Take().status().code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncUpdaterTest, ReadyBecomesTrueEventually) {
  Deployment dep = Deploy(704);
  AsyncUpdater updater(FastOptions());
  ASSERT_TRUE(
      updater.StartLearn(dep.model, dep.support, "G", Capture(7)).ok());
  // Poll like a UI would.
  for (int i = 0; i < 600 && !updater.ready(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(updater.ready());
  EXPECT_TRUE(updater.Take().ok());
}

TEST(AsyncUpdaterTest, BackgroundCalibrate) {
  Deployment dep = Deploy(705);
  AsyncUpdater updater(FastOptions());
  sensors::UserProfile user(8, 0.6);
  sensors::SyntheticGenerator gen(9);
  std::vector<sensors::Recording> capture{gen.Generate(
      user.Personalize(sensors::DefaultActivityLibrary()[sensors::kWalk]),
      20.0)};
  ASSERT_TRUE(updater
                  .StartCalibrate(dep.model, dep.support, sensors::kWalk,
                                  capture)
                  .ok());
  auto outcome = updater.Take();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value().report.activity, sensors::kWalk);
  EXPECT_EQ(outcome.value().model.registry().size(), 5u);
}

TEST(AsyncUpdaterTest, DestructorJoinsInFlightWork) {
  Deployment dep = Deploy(706);
  {
    AsyncUpdater updater(FastOptions());
    ASSERT_TRUE(
        updater.StartLearn(dep.model, dep.support, "G", Capture(10)).ok());
    // Destroyed while running: must join cleanly, no crash/leak.
  }
  SUCCEED();
}

TEST(AsyncUpdaterStressTest, ConcurrentStartPollTakeHammer) {
  // Regression for the unlocked `worker_` join/reassign in Launch: threads
  // hammer Start/busy/ready/Take on one updater while updates complete at
  // arbitrary times. Run under -DMAGNETO_SANITIZE=thread this is the race
  // detector for the worker-handle lock order; unsanitized it still checks
  // the protocol (exactly one Take succeeds per successful Start).
  Deployment dep = Deploy(709);
  IncrementalOptions fast = FastOptions();
  fast.train.epochs = 1;
  fast.train.batch_size = 16;
  AsyncUpdater updater(fast);

  std::atomic<int> starts{0};
  std::atomic<int> takes{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Two starter threads compete to launch updates (distinct names so
  // repeated learns keep succeeding), two taker threads compete to reap
  // them, one poller spins on busy()/ready().
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const std::string name =
            "G" + std::to_string(t) + "_" + std::to_string(i);
        if (updater.StartLearn(dep.model, dep.support, name, Capture(20 + i))
                .ok()) {
          starts.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto outcome = updater.Take();
        if (outcome.ok() ||
            outcome.status().code() != StatusCode::kFailedPrecondition) {
          takes.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      updater.busy();
      updater.ready();
    }
  });

  threads[0].join();
  threads[1].join();
  // Drain any final in-flight update, then stop the takers/poller.
  while (updater.busy()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(starts.load(), 0);
  // Every successful start was reaped by exactly one successful Take (a
  // training failure also counts: it surfaces through one Take).
  EXPECT_EQ(takes.load(), starts.load());
  EXPECT_FALSE(updater.busy());
}

TEST(AsyncUpdaterStressTest, DestroyWhileConcurrentlyPolled) {
  // Construct/poll/destroy cycles: the destructor's reap must not race the
  // poller's locked state reads.
  Deployment dep = Deploy(710);
  IncrementalOptions fast = FastOptions();
  fast.train.epochs = 1;
  for (int round = 0; round < 3; ++round) {
    auto updater = std::make_unique<AsyncUpdater>(fast);
    ASSERT_TRUE(updater
                    ->StartLearn(dep.model, dep.support,
                                 "R" + std::to_string(round), Capture(40))
                    .ok());
    std::thread poller([&u = *updater] {
      for (int i = 0; i < 200; ++i) {
        u.busy();
        u.ready();
      }
    });
    poller.join();
    updater.reset();  // joins the in-flight worker
  }
  SUCCEED();
}

TEST(EdgeRuntimeAsyncTest, FullAsyncFlowWithHotSwap) {
  ModelBundle bundle = testing::SmallPretrainedBundle(707);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support), FastOptions());

  // Record the gesture.
  sensors::SyntheticGenerator gen(11);
  sensors::SignalModel gesture = sensors::MakeGestureModel(55);
  ASSERT_TRUE(runtime.StartRecording().ok());
  sensors::Recording capture = gen.Generate(gesture, 20.0);
  for (size_t i = 0; i < capture.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = capture.samples.At(i, c);
    }
    ASSERT_TRUE(runtime.PushFrame(frame).ok());
  }

  // Kick off the background update; inference resumes immediately.
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture Hi").ok());
  EXPECT_EQ(runtime.mode(), RuntimeMode::kInference);
  EXPECT_TRUE(runtime.UpdatePending());
  sensors::Recording still =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 1.0);
  for (size_t i = 0; i < still.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = still.samples.At(i, c);
    }
    ASSERT_TRUE(runtime.PushFrame(frame).ok());
  }
  EXPECT_EQ(runtime.model().registry().size(), 5u);  // old model still live

  // Second update while one is pending is refused.
  ASSERT_TRUE(runtime.StartRecording().ok());
  EXPECT_EQ(runtime.FinishRecordingAndLearnAsync("Another").code(),
            StatusCode::kFailedPrecondition);
  runtime.CancelRecording();

  // Commit the hot swap.
  auto report = runtime.CommitUpdate();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(runtime.model().registry().size(), 6u);
  EXPECT_TRUE(runtime.support().HasClass(report.value().activity));
  EXPECT_EQ(runtime.stats().updates, 1u);
}

TEST(EdgeRuntimeAsyncTest, SyncUpdateWhileOneIsPendingIsRefused) {
  ModelBundle bundle = testing::SmallPretrainedBundle(709);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support), FastOptions());
  const auto record = [&runtime](uint64_t seed) {
    ASSERT_TRUE(runtime.StartRecording().ok());
    const sensors::Recording capture = Capture(seed).front();
    for (size_t i = 0; i < capture.num_samples(); ++i) {
      sensors::Frame frame;
      for (size_t c = 0; c < sensors::kNumChannels; ++c) {
        frame[c] = capture.samples.At(i, c);
      }
      ASSERT_TRUE(runtime.PushFrame(frame).ok());
    }
  };

  record(61);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture A").ok());
  record(62);
  // A synchronous update would commit over the pending one (or be lost under
  // it), so it is refused and the capture stays in place for a retry.
  EXPECT_EQ(runtime.FinishRecordingAndLearn("Gesture B").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.FinishRecordingAndCalibrate("Walk").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.mode(), RuntimeMode::kRecording);
  EXPECT_GT(runtime.recorded_seconds(), 0.0);

  ASSERT_TRUE(runtime.CommitUpdate().ok());
  auto report = runtime.FinishRecordingAndLearn("Gesture B");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(runtime.mode(), RuntimeMode::kInference);
  EXPECT_TRUE(runtime.model().registry().IdOf("Gesture A").ok());
  EXPECT_TRUE(runtime.model().registry().IdOf("Gesture B").ok());
  EXPECT_EQ(runtime.stats().updates, 2u);
}

TEST(EdgeRuntimeAsyncTest, CommitWithoutStartFails) {
  ModelBundle bundle = testing::SmallPretrainedBundle(708);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support), FastOptions());
  EXPECT_EQ(runtime.CommitUpdate().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace magneto::core
