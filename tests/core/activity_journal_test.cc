#include "core/activity_journal.h"

#include <gtest/gtest.h>

#include "core/edge_runtime.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

NamedPrediction Pred(sensors::ActivityId id, const std::string& name) {
  NamedPrediction p;
  p.prediction.activity = id;
  p.prediction.confidence = 0.9;
  p.name = name;
  return p;
}

TEST(ActivityJournalTest, AccumulatesSecondsPerActivity) {
  ActivityJournal journal(1.0);
  for (int i = 0; i < 30; ++i) journal.Record(Pred(4, "Walk"));
  for (int i = 0; i < 10; ++i) journal.Record(Pred(3, "Still"));
  EXPECT_DOUBLE_EQ(journal.TotalSeconds(4), 30.0);
  EXPECT_DOUBLE_EQ(journal.TotalSeconds(3), 10.0);
  EXPECT_DOUBLE_EQ(journal.TotalSeconds(99), 0.0);
  EXPECT_DOUBLE_EQ(journal.elapsed_seconds(), 40.0);
}

TEST(ActivityJournalTest, WindowSecondsScaleTotals) {
  ActivityJournal journal(0.5);
  for (int i = 0; i < 8; ++i) journal.Record(Pred(0, "Drive"));
  EXPECT_DOUBLE_EQ(journal.TotalSeconds(0), 4.0);
}

TEST(ActivityJournalTest, BoutsMergeConsecutiveWindows) {
  ActivityJournal journal(1.0);
  for (int i = 0; i < 5; ++i) journal.Record(Pred(4, "Walk"));
  for (int i = 0; i < 3; ++i) journal.Record(Pred(2, "Run"));
  for (int i = 0; i < 2; ++i) journal.Record(Pred(4, "Walk"));
  ASSERT_EQ(journal.bouts().size(), 3u);
  EXPECT_EQ(journal.bouts()[0].name, "Walk");
  EXPECT_DOUBLE_EQ(journal.bouts()[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(journal.bouts()[0].duration_s, 5.0);
  EXPECT_EQ(journal.bouts()[1].name, "Run");
  EXPECT_DOUBLE_EQ(journal.bouts()[1].start_s, 5.0);
  EXPECT_DOUBLE_EQ(journal.bouts()[2].start_s, 8.0);
  EXPECT_DOUBLE_EQ(journal.bouts()[2].duration_s, 2.0);
}

TEST(ActivityJournalTest, BoutTimelineIsBoundedAndTotalsStayExact) {
  // Alternating windows open a bout each: 5,000 bouts, far past the ring.
  ActivityJournal journal(1.0);
  constexpr int kWindows = 5000;
  for (int i = 0; i < kWindows; ++i) {
    if (i % 2 == 0) {
      journal.Record(Pred(4, "Walk"));
    } else {
      journal.Record(Pred(2, "Run"));
    }
  }
  EXPECT_DOUBLE_EQ(journal.TotalSeconds(4), kWindows / 2);
  EXPECT_DOUBLE_EQ(journal.TotalSeconds(2), kWindows / 2);
  EXPECT_DOUBLE_EQ(journal.elapsed_seconds(), kWindows);
  EXPECT_NE(journal.Summary().find("2500 bout(s)"), std::string::npos);

  // The retained bouts are the latest ones, oldest first, each still
  // carrying its own activity, name, start and duration.
  const std::vector<ActivityBout> bouts = journal.bouts();
  ASSERT_EQ(bouts.size(), ActivityJournal::kMaxBouts);
  const size_t first = kWindows - ActivityJournal::kMaxBouts;
  for (size_t k = 0; k < bouts.size(); ++k) {
    const size_t window = first + k;
    const bool walk = window % 2 == 0;
    EXPECT_EQ(bouts[k].activity, walk ? 4 : 2) << k;
    EXPECT_EQ(bouts[k].name, walk ? "Walk" : "Run") << k;
    EXPECT_DOUBLE_EQ(bouts[k].start_s, static_cast<double>(window)) << k;
    EXPECT_DOUBLE_EQ(bouts[k].duration_s, 1.0) << k;
  }

  // The open bout still grows in place once the ring has wrapped.
  journal.Record(Pred(2, "Run"));
  EXPECT_DOUBLE_EQ(journal.bouts().back().duration_s, 2.0);
  EXPECT_DOUBLE_EQ(journal.bouts().back().start_s, kWindows - 1);
  EXPECT_EQ(journal.bouts().size(), ActivityJournal::kMaxBouts);
}

TEST(ActivityJournalTest, TotalsSortedDescending) {
  ActivityJournal journal(1.0);
  journal.Record(Pred(0, "Drive"));
  for (int i = 0; i < 5; ++i) journal.Record(Pred(4, "Walk"));
  for (int i = 0; i < 3; ++i) journal.Record(Pred(2, "Run"));
  auto totals = journal.Totals();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].first, "Walk");
  EXPECT_EQ(totals[1].first, "Run");
  EXPECT_EQ(totals[2].first, "Drive");
}

TEST(ActivityJournalTest, SummaryMentionsEveryActivity) {
  ActivityJournal journal(1.0);
  for (int i = 0; i < 60; ++i) journal.Record(Pred(4, "Walk"));
  for (int i = 0; i < 60; ++i) journal.Record(Pred(3, "Still"));
  const std::string summary = journal.Summary();
  EXPECT_NE(summary.find("Walk"), std::string::npos);
  EXPECT_NE(summary.find("Still"), std::string::npos);
  EXPECT_NE(summary.find("50.0%"), std::string::npos);
  EXPECT_NE(summary.find("1 bout(s)"), std::string::npos);
}

TEST(ActivityJournalTest, ResetClearsEverything) {
  ActivityJournal journal(1.0);
  journal.Record(Pred(4, "Walk"));
  journal.Reset();
  EXPECT_DOUBLE_EQ(journal.elapsed_seconds(), 0.0);
  EXPECT_TRUE(journal.bouts().empty());
  EXPECT_TRUE(journal.Totals().empty());
}

TEST(ActivityJournalDeathTest, NonPositiveWindowAborts) {
  EXPECT_DEATH(ActivityJournal(0.0), "Check failed");
}

TEST(ActivityJournalTest, RuntimeIntegration) {
  ModelBundle bundle = testing::SmallPretrainedBundle(910);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support), {});
  EXPECT_EQ(runtime.journal(), nullptr);
  runtime.EnableJournal();
  ASSERT_NE(runtime.journal(), nullptr);

  sensors::SyntheticGenerator gen(1);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 4.0);
  for (size_t i = 0; i < rec.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = rec.samples.At(i, c);
    }
    ASSERT_TRUE(runtime.PushFrame(frame).ok());
  }
  // 4 one-second windows recorded into the ledger.
  EXPECT_NEAR(runtime.journal()->elapsed_seconds(), 4.0, 1e-9);
  EXPECT_GT(runtime.journal()->TotalSeconds(sensors::kStill), 2.0);
}

TEST(DriftMonitorRuntimeTest, RuntimeIntegration) {
  ModelBundle bundle = testing::SmallPretrainedBundle(911);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  EdgeRuntime runtime(std::move(model), std::move(support), {});
  EXPECT_FALSE(runtime.Drifting());
  runtime.EnableDriftMonitoring({.window = 3, .min_confidence = 0.0,
                                 .distance_factor = 2.0},
                                /*baseline_distance=*/1e-6);
  // Any real stream sits far above a near-zero baseline -> alarms once the
  // window fills.
  sensors::SyntheticGenerator gen(2);
  sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 4.0);
  for (size_t i = 0; i < rec.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = rec.samples.At(i, c);
    }
    ASSERT_TRUE(runtime.PushFrame(frame).ok());
  }
  EXPECT_TRUE(runtime.Drifting());
  runtime.DisableDriftMonitoring();
  EXPECT_FALSE(runtime.Drifting());
}

}  // namespace
}  // namespace magneto::core
