#include "platform/edge_fleet.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/edge_runtime.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo_monitor.h"
#include "obs/trace.h"
#include "sensors/synthetic_generator.h"
#include "testing/test_helpers.h"

namespace magneto::platform {
namespace {

core::IncrementalOptions FastUpdateOptions() {
  core::IncrementalOptions options;
  options.train.epochs = 2;
  options.train.batch_size = 16;
  options.train.seed = 7;
  return options;
}

std::vector<sensors::Frame> FramesOf(const sensors::Recording& rec) {
  std::vector<sensors::Frame> frames(rec.num_samples());
  for (size_t i = 0; i < frames.size(); ++i) {
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frames[i][c] = rec.samples.At(i, c);
    }
  }
  return frames;
}

std::vector<sensors::Frame> ActivityFrames(sensors::ActivityId activity,
                                           double seconds, uint64_t seed) {
  sensors::SyntheticGenerator gen(seed);
  return FramesOf(
      gen.Generate(sensors::DefaultActivityLibrary()[activity], seconds));
}

TEST(EdgeFleetTest, CreateValidatesInputs) {
  EXPECT_EQ(EdgeFleet::Create(testing::SmallPretrainedBundle(801), 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // An unfitted/empty bundle is refused.
  EXPECT_EQ(EdgeFleet::Create(core::ModelBundle{}, 2).status().code(),
            StatusCode::kFailedPrecondition);
  FleetOptions zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_EQ(EdgeFleet::Create(testing::SmallPretrainedBundle(801), 2,
                              zero_batch)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto fleet = EdgeFleet::Create(testing::SmallPretrainedBundle(801), 3);
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(fleet.value()->num_sessions(), 3u);
  EXPECT_EQ(fleet.value()->deployment_version(), 1u);
}

TEST(EdgeFleetTest, SingleSessionMatchesEdgeRuntime) {
  // A fleet of one must be byte-for-byte the single-session runtime: same
  // bundle, same frames, identical prediction stream.
  core::ModelBundle runtime_bundle = testing::SmallPretrainedBundle(802);
  core::SupportSet support = std::move(runtime_bundle.support);
  core::EdgeRuntime runtime(std::move(runtime_bundle).ToEdgeModel(),
                            std::move(support), FastUpdateOptions());
  auto fleet =
      EdgeFleet::Create(testing::SmallPretrainedBundle(802), 1).value();

  std::vector<sensors::Frame> frames = ActivityFrames(sensors::kWalk, 3.0, 5);
  std::vector<sensors::Frame> more = ActivityFrames(sensors::kStill, 3.0, 6);
  frames.insert(frames.end(), more.begin(), more.end());

  size_t predictions = 0;
  for (const sensors::Frame& frame : frames) {
    auto from_runtime = runtime.PushFrame(frame);
    auto from_fleet = fleet->PushFrame(0, frame);
    ASSERT_TRUE(from_runtime.ok());
    ASSERT_TRUE(from_fleet.ok());
    ASSERT_EQ(from_runtime.value().has_value(),
              from_fleet.value().has_value());
    if (!from_fleet.value().has_value()) continue;
    ++predictions;
    const core::NamedPrediction& a = *from_runtime.value();
    const core::NamedPrediction& b = *from_fleet.value();
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(std::memcmp(&a.prediction, &b.prediction,
                          sizeof(core::Prediction)),
              0);
  }
  EXPECT_GE(predictions, 5u);
  EXPECT_EQ(fleet->session_stats(0).predictions, predictions);

  // The same holds for overlapping (60) and gapped (240) strides on a
  // 120-sample window.
  for (size_t stride : {60, 240}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    core::CloudConfig config = testing::SmallCloudConfig();
    config.pipeline.segmentation.window_samples = 120;
    config.pipeline.segmentation.stride = stride;
    core::CloudInitializer cloud(config);
    auto bundle = cloud.Initialize(testing::SmallCorpus(413),
                                   sensors::ActivityRegistry::BaseActivities());
    ASSERT_TRUE(bundle.ok());
    core::SupportSet strided_support = std::move(bundle.value().support);
    core::EdgeRuntime strided(std::move(bundle).value().ToEdgeModel(),
                              std::move(strided_support), FastUpdateOptions());
    auto strided_fleet = EdgeFleet::Create(strided.ToBundle(), 1).value();

    size_t strided_predictions = 0;
    for (const sensors::Frame& frame : frames) {
      auto from_runtime = strided.PushFrame(frame);
      auto from_fleet = strided_fleet->PushFrame(0, frame);
      ASSERT_TRUE(from_runtime.ok());
      ASSERT_TRUE(from_fleet.ok());
      ASSERT_EQ(from_runtime.value().has_value(),
                from_fleet.value().has_value());
      if (!from_fleet.value().has_value()) continue;
      ++strided_predictions;
      const core::NamedPrediction& a = *from_runtime.value();
      const core::NamedPrediction& b = *from_fleet.value();
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(std::memcmp(&a.prediction, &b.prediction,
                            sizeof(core::Prediction)),
                0);
    }
    EXPECT_GE(strided_predictions, 2u);
    EXPECT_EQ(strided_fleet->session_stats(0).predictions,
              strided.stats().predictions);
    EXPECT_EQ(strided_fleet->session_stats(0).windows,
              strided.stats().windows);
  }
}

TEST(EdgeFleetTest, SessionsHaveIndependentState) {
  auto fleet =
      EdgeFleet::Create(testing::SmallPretrainedBundle(803), 3).value();
  for (const sensors::Frame& f : ActivityFrames(sensors::kWalk, 2.0, 11)) {
    ASSERT_TRUE(fleet->PushFrame(0, f).ok());
  }
  for (const sensors::Frame& f : ActivityFrames(sensors::kStill, 1.0, 12)) {
    ASSERT_TRUE(fleet->PushFrame(1, f).ok());
  }

  EXPECT_EQ(fleet->session_stats(0).frames, 240u);
  EXPECT_EQ(fleet->session_stats(0).windows, 2u);
  EXPECT_EQ(fleet->session_stats(1).frames, 120u);
  EXPECT_EQ(fleet->session_stats(1).windows, 1u);
  // Session 2 was never fed: untouched.
  EXPECT_EQ(fleet->session_stats(2).frames, 0u);
  EXPECT_FALSE(fleet->last_prediction(2).has_value());
  ASSERT_TRUE(fleet->last_prediction(0).has_value());

  EXPECT_EQ(fleet->PushFrame(99, ActivityFrames(sensors::kWalk, 0.1, 1)[0])
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EdgeFleetTest, PromotionSwapsAtomicallyAndResetsStreams) {
  auto fleet =
      EdgeFleet::Create(testing::SmallPretrainedBundle(804), 1).value();
  std::vector<sensors::Frame> frames = ActivityFrames(sensors::kWalk, 2.0, 21);

  // Fill half a window, then promote: the partial window must be discarded.
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(fleet->PushFrame(0, frames[i]).ok());
  }
  ASSERT_TRUE(fleet->PromoteBundle(testing::SmallPretrainedBundle(805)).ok());
  EXPECT_EQ(fleet->deployment_version(), 2u);

  size_t frames_to_first = 0;
  for (size_t i = 60; i < frames.size(); ++i) {
    auto pred = fleet->PushFrame(0, frames[i]);
    ASSERT_TRUE(pred.ok());
    ++frames_to_first;
    if (pred.value().has_value()) break;
  }
  // A full fresh window (120 frames) after the promotion, not 60.
  EXPECT_EQ(frames_to_first, 120u);

  // Promoting junk is refused and the live deployment is untouched.
  EXPECT_EQ(fleet->PromoteBundle(core::ModelBundle{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet->deployment_version(), 2u);
}

TEST(EdgeFleetTest, BatchingKeepsMetricsConsistent) {
  obs::Registry::Global().ResetAll();
  FleetOptions options;
  options.max_batch = 4;
  auto fleet = EdgeFleet::Create(testing::SmallPretrainedBundle(807), 4,
                                 options)
                   .value();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (size_t s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      for (const sensors::Frame& f :
           ActivityFrames(sensors::kWalk, 2.0, 40 + s)) {
        if (!fleet->PushFrame(s, f).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
  const auto* requests = snap.FindCounter("fleet.requests");
  const auto* batches = snap.FindCounter("fleet.batches");
  const auto* batch_size = snap.FindHistogram("fleet.batch_size");
  ASSERT_NE(requests, nullptr);
  ASSERT_NE(batches, nullptr);
  ASSERT_NE(batch_size, nullptr);
  EXPECT_EQ(requests->value, 8u);  // 4 sessions x 2 windows
  EXPECT_GT(batches->value, 0u);
  EXPECT_LE(batches->value, requests->value);
  EXPECT_EQ(batch_size->count, batches->value);
  // Total classified rows across all batches equals total requests.
  EXPECT_DOUBLE_EQ(batch_size->sum, static_cast<double>(requests->value));
}

/// Pre-featurizes `count` consecutive windows of synthetic `activity` data
/// through the bundle's own pipeline — exactly what an open-loop generator
/// feeds `SubmitWindow`.
std::vector<std::vector<float>> FeaturizedWindows(
    const core::ModelBundle& bundle, sensors::ActivityId activity,
    size_t count, uint64_t seed) {
  const auto& seg = bundle.pipeline.config().segmentation;
  const double seconds =
      static_cast<double>(seg.window_samples + count * seg.stride) /
          sensors::kDefaultSampleRateHz +
      1.0;
  std::vector<sensors::Frame> frames = ActivityFrames(activity, seconds, seed);
  std::vector<std::vector<float>> out;
  out.reserve(count);
  for (size_t w = 0; w < count; ++w) {
    Matrix window(seg.window_samples, sensors::kNumChannels);
    for (size_t r = 0; r < seg.window_samples; ++r) {
      const sensors::Frame& f = frames[w * seg.stride + r];
      for (size_t c = 0; c < sensors::kNumChannels; ++c) {
        window.At(r, c) = f[c];
      }
    }
    out.push_back(bundle.pipeline.ProcessWindow(window).value());
  }
  return out;
}

TEST(EdgeFleetTest, OpenLoopOptionsValidated) {
  FleetOptions no_leaders;
  no_leaders.max_concurrent_batches = 0;
  EXPECT_EQ(EdgeFleet::Create(testing::SmallPretrainedBundle(811), 1,
                              no_leaders)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  FleetOptions no_queue;
  no_queue.serve_threads = 2;
  no_queue.admission_capacity = 0;
  EXPECT_EQ(EdgeFleet::Create(testing::SmallPretrainedBundle(811), 1,
                              no_queue)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EdgeFleetDeathTest, SubmitWindowWithoutWorkersAborts) {
  // Default options leave serve_threads = 0: the open-loop path is off and
  // SubmitWindow is a configuration error, not a quiet no-op.
  auto fleet =
      EdgeFleet::Create(testing::SmallPretrainedBundle(812), 1).value();
  EXPECT_DEATH(fleet->SubmitWindow(0, std::vector<float>(4, 0.0f)),
               "serve_threads");
}

TEST(EdgeFleetTest, OpenLoopServesSubmittedWindows) {
  core::ModelBundle bundle = testing::SmallPretrainedBundle(813);
  auto windows = FeaturizedWindows(bundle, sensors::kWalk, 6, 60);
  FleetOptions options;
  options.serve_threads = 2;
  options.max_concurrent_batches = 2;
  auto fleet = EdgeFleet::Create(std::move(bundle), 2, options).value();

  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_TRUE(fleet->SubmitWindow(i % 2, windows[i]));
  }
  // Out-of-range sessions are shed, not fatal: the generator keeps running.
  EXPECT_FALSE(fleet->SubmitWindow(99, windows[0]));
  fleet->DrainSubmitted();

  for (size_t s = 0; s < 2; ++s) {
    const FleetSessionStats stats = fleet->session_stats(s);
    EXPECT_EQ(stats.submitted, 3u) << "session " << s;
    EXPECT_EQ(stats.rejected, 0u) << "session " << s;
    EXPECT_EQ(stats.windows, 3u) << "session " << s;
    EXPECT_EQ(stats.predictions, 3u) << "session " << s;
    // SubmitWindow bypasses the frame stream entirely.
    EXPECT_EQ(stats.frames, 0u) << "session " << s;
    EXPECT_TRUE(fleet->last_prediction(s).has_value()) << "session " << s;
  }
}

TEST(EdgeFleetTest, OpenLoopMatchesClosedLoopPrediction) {
  // The same window must classify identically whether it arrives frame by
  // frame (PushFrame) or pre-featurized through the admission queue.
  core::ModelBundle closed_bundle = testing::SmallPretrainedBundle(814);
  core::ModelBundle open_bundle = testing::SmallPretrainedBundle(814);
  auto windows = FeaturizedWindows(open_bundle, sensors::kRun, 1, 61);

  auto closed = EdgeFleet::Create(std::move(closed_bundle), 1).value();
  const auto& seg = open_bundle.pipeline.config().segmentation;
  const double seconds = static_cast<double>(seg.window_samples + seg.stride) /
                             sensors::kDefaultSampleRateHz +
                         1.0;
  std::optional<core::NamedPrediction> from_frames;
  for (const sensors::Frame& f : ActivityFrames(sensors::kRun, seconds, 61)) {
    auto pred = closed->PushFrame(0, f);
    ASSERT_TRUE(pred.ok());
    if (pred.value().has_value()) {
      from_frames = pred.value();
      break;
    }
  }
  ASSERT_TRUE(from_frames.has_value());

  FleetOptions options;
  options.serve_threads = 1;
  auto open = EdgeFleet::Create(std::move(open_bundle), 1, options).value();
  ASSERT_TRUE(open->SubmitWindow(0, windows[0]));
  open->DrainSubmitted();
  ASSERT_TRUE(open->last_prediction(0).has_value());
  EXPECT_EQ(open->last_prediction(0)->name, from_frames->name);
  EXPECT_EQ(open->last_prediction(0)->prediction.activity,
            from_frames->prediction.activity);
}

TEST(EdgeFleetTest, OpenLoopShedsWhenQueueFull) {
  obs::Registry::Global().ResetAll();
  core::ModelBundle bundle = testing::SmallPretrainedBundle(815);
  auto windows = FeaturizedWindows(bundle, sensors::kStill, 1, 62);
  FleetOptions options;
  options.serve_threads = 1;
  options.admission_capacity = 4;
  auto fleet = EdgeFleet::Create(std::move(bundle), 1, options).value();

  // A hard burst: admission is a queue push, service is a backbone forward,
  // and the queue holds 4 — the lone worker cannot keep up and most of the
  // burst must shed.
  constexpr size_t kBurst = 500;
  size_t admitted = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    if (fleet->SubmitWindow(0, windows[0])) ++admitted;
  }
  fleet->DrainSubmitted();

  const FleetSessionStats stats = fleet->session_stats(0);
  EXPECT_EQ(stats.submitted, admitted);
  EXPECT_EQ(stats.rejected, kBurst - admitted);
  EXPECT_GT(stats.rejected, 0u);
  // Every admitted window was served, every shed window was not.
  EXPECT_EQ(stats.windows, admitted);
  EXPECT_EQ(stats.predictions, admitted);

  obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
  const auto* rejected = snap.FindCounter("fleet.rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value, stats.rejected);
  const auto* wait = snap.FindHistogram("fleet.queue_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, admitted);
  const auto* depth = snap.FindGauge("fleet.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0.0);  // drained
}

TEST(EdgeFleetTest, OpenLoopEmitsLinkedFlowEventsAndStageHistograms) {
  // The tentpole property: one submitted window is followable end-to-end —
  // a flow begin on the admission thread, a step at the combiner, a finish
  // at publish, all sharing the request id, plus one sample in every
  // fleet.stage.* histogram whose stages tile admit -> publish.
  obs::Registry::Global().ResetAll();
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  core::ModelBundle bundle = testing::SmallPretrainedBundle(818);
  auto windows = FeaturizedWindows(bundle, sensors::kWalk, 4, 64);
  FleetOptions options;
  options.serve_threads = 2;
  auto fleet = EdgeFleet::Create(std::move(bundle), 1, options).value();

  for (const auto& w : windows) ASSERT_TRUE(fleet->SubmitWindow(0, w));
  fleet->DrainSubmitted();
  obs::SetTraceEnabled(false);

  // Each request contributes exactly one s and one f marker (and at least
  // one t at the embed hop), every marker carrying the same nonzero id.
  std::map<uint64_t, std::array<size_t, 3>> flows;  // id -> {s, t, f} counts
  for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
    if (e.phase == obs::TracePhase::kSpan) continue;
    ASSERT_STREQ(e.name, "fleet.request");
    ASSERT_NE(e.flow_id, 0u);
    auto& counts = flows[e.flow_id];
    switch (e.phase) {
      case obs::TracePhase::kFlowBegin: ++counts[0]; break;
      case obs::TracePhase::kFlowStep: ++counts[1]; break;
      case obs::TracePhase::kFlowEnd: ++counts[2]; break;
      default: break;
    }
  }
  ASSERT_EQ(flows.size(), windows.size());
  for (const auto& [id, counts] : flows) {
    EXPECT_EQ(counts[0], 1u) << "flow " << id;
    EXPECT_EQ(counts[1], 1u) << "flow " << id;
    EXPECT_EQ(counts[2], 1u) << "flow " << id;
  }

  // Stage attribution: every stage histogram saw every request, and the
  // stage means tile the end-to-end mean exactly (adjacent intervals).
  obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
  double stage_mean_sum = 0.0;
  for (const char* stage : {"queue", "batch_wait", "embed", "classify",
                            "publish"}) {
    const auto* h = snap.FindHistogram(std::string("fleet.stage.") + stage +
                                       "_us");
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count, windows.size()) << stage;
    stage_mean_sum += h->sum / static_cast<double>(h->count);
  }
  const auto* e2e_h = snap.FindHistogram("fleet.e2e_us");
  ASSERT_NE(e2e_h, nullptr);
  EXPECT_EQ(e2e_h->count, windows.size());
  const double e2e_mean = e2e_h->sum / static_cast<double>(e2e_h->count);
  // The 1/1000 fixed-point quantisation of each histogram's sum is the only
  // slack between the tiled stages and the end-to-end interval.
  EXPECT_NEAR(stage_mean_sum, e2e_mean, 0.01 * 6);
  // Tail buckets carry exemplars: concrete request ids, not just counts.
  bool any_exemplar = false;
  for (const auto& ex : e2e_h->exemplars) any_exemplar |= ex.id != 0;
  EXPECT_TRUE(any_exemplar);
}

TEST(EdgeFleetTest, OpenLoopFillsInjectedFlightRecorder) {
  obs::FlightRecorder recorder(64);
  core::ModelBundle bundle = testing::SmallPretrainedBundle(819);
  auto windows = FeaturizedWindows(bundle, sensors::kRun, 5, 65);
  FleetOptions options;
  options.serve_threads = 1;
  options.flight_recorder = &recorder;
  auto fleet = EdgeFleet::Create(std::move(bundle), 1, options).value();
  for (const auto& w : windows) ASSERT_TRUE(fleet->SubmitWindow(0, w));
  fleet->DrainSubmitted();

  const std::vector<obs::FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), windows.size());
  for (const obs::FlightRecord& r : records) {
    EXPECT_EQ(r.outcome, obs::FlightRecord::Outcome::kOk);
    EXPECT_EQ(r.session, 0u);
    EXPECT_EQ(r.deployment_version, 1u);
    EXPECT_GE(r.batch_size, 1u);
    // Stage stamps are complete and ordered for a published request.
    uint64_t prev = 0;
    for (size_t s = 0; s < obs::kNumRequestStages; ++s) {
      EXPECT_GT(r.stage_ns[s], 0u) << "stage " << s;
      EXPECT_GE(r.stage_ns[s], prev) << "stage " << s;
      prev = r.stage_ns[s];
    }
  }
}

TEST(EdgeFleetTest, ShedBurstDegradesHealthAndAutoDumps) {
  // Forced-degradation drill: a burst against a tiny queue must leave shed
  // records in the injected recorder, fire the shed_burst anomaly (with an
  // auto-dump), and push the SLO monitor out of OK.
  const std::string dump_path =
      testing::UniqueTempPath("fleet_shed_burst_dump.json");
  std::remove(dump_path.c_str());
  obs::FlightRecorder recorder(128);
  recorder.SetShedBurstThreshold(8);
  recorder.SetAutoDumpPath(dump_path);
  obs::SloMonitor slo;

  core::ModelBundle bundle = testing::SmallPretrainedBundle(820);
  auto windows = FeaturizedWindows(bundle, sensors::kStill, 1, 66);
  FleetOptions options;
  options.serve_threads = 1;
  options.admission_capacity = 4;
  options.flight_recorder = &recorder;
  options.slo_monitor = &slo;
  auto fleet = EdgeFleet::Create(std::move(bundle), 1, options).value();

  constexpr size_t kBurst = 400;
  size_t admitted = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    if (fleet->SubmitWindow(0, windows[0])) ++admitted;
  }
  fleet->DrainSubmitted();
  ASSERT_GT(kBurst - admitted, 8u);  // the burst actually shed

  // Shed records landed in the ring alongside served ones.
  size_t shed_records = 0;
  for (const obs::FlightRecord& r : recorder.Snapshot()) {
    if (r.outcome == obs::FlightRecord::Outcome::kShed) ++shed_records;
  }
  EXPECT_GT(shed_records, 0u);

  // The burst crossed the threshold: anomaly dump exists and names it.
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "shed burst did not auto-dump";
  std::ostringstream contents;
  contents << dump.rdbuf();
  EXPECT_NE(contents.str().find("\"last_anomaly\": \"shed_burst\""),
            std::string::npos);
  std::remove(dump_path.c_str());

  // Sheds outnumber serves by ~100x, far past any shed-rate target.
  const obs::HealthReport health = slo.Evaluate();
  EXPECT_NE(health.state, obs::HealthState::kOk);
  EXPECT_GT(health.shed_rate, slo.targets().max_shed_rate);
  EXPECT_EQ(health.requests + health.shed, kBurst);
}

TEST(EdgeFleetStressTest, OpenLoopConcurrentSubmitWithMidRunPromotion) {
  // Open-loop counterpart of the promotion storm below: producer threads
  // hammer SubmitWindow while workers drain and a promotion swaps the
  // deployment mid-run. TSan target for the admission queue handoff.
  constexpr size_t kSessions = 4;
  constexpr size_t kPerSession = 50;
  core::ModelBundle bundle = testing::SmallPretrainedBundle(816);
  auto windows = FeaturizedWindows(bundle, sensors::kWalk, 4, 63);
  FleetOptions options;
  options.serve_threads = 4;
  options.max_concurrent_batches = 4;
  options.max_batch = 8;
  options.admission_capacity = 64;
  auto fleet =
      EdgeFleet::Create(std::move(bundle), kSessions, options).value();

  std::vector<std::thread> producers;
  for (size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSession; ++i) {
        fleet->SubmitWindow(s, windows[i % windows.size()]);
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  while (fleet->session_stats(0).windows == 0) std::this_thread::yield();
  ASSERT_TRUE(fleet->PromoteBundle(testing::SmallPretrainedBundle(817)).ok());
  for (auto& t : producers) t.join();
  fleet->DrainSubmitted();

  for (size_t s = 0; s < kSessions; ++s) {
    const FleetSessionStats stats = fleet->session_stats(s);
    EXPECT_EQ(stats.submitted + stats.rejected, kPerSession)
        << "session " << s;
    EXPECT_EQ(stats.windows, stats.submitted) << "session " << s;
    EXPECT_EQ(stats.predictions, stats.submitted) << "session " << s;
  }
  EXPECT_EQ(fleet->deployment_version(), 2u);
}

TEST(EdgeFleetStressTest, ConcurrentSessionsWithMidRunPromotion) {
  // The tentpole: many sessions classify concurrently while a bundle
  // promotion lands mid-run. Under -DMAGNETO_SANITIZE=thread this is the
  // race detector for the whole serving path (shared deployment, batcher,
  // per-session state, copy-on-swap).
  constexpr size_t kSessions = 8;
  FleetOptions options;
  options.max_batch = 8;
  auto fleet = EdgeFleet::Create(testing::SmallPretrainedBundle(808),
                                 kSessions, options)
                   .value();

  const sensors::ActivityId activities[] = {sensors::kStill, sensors::kWalk,
                                            sensors::kRun};
  std::atomic<int> failures{0};
  std::atomic<size_t> sessions_done{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      std::vector<sensors::Frame> frames =
          ActivityFrames(activities[s % 3], 4.0, 50 + s);
      for (const sensors::Frame& f : frames) {
        if (!fleet->PushFrame(s, f).ok()) failures.fetch_add(1);
      }
      sessions_done.fetch_add(1);
    });
  }
  // Promote once a few sessions are underway, well before they finish.
  while (sessions_done.load() == 0 && fleet->session_stats(0).windows < 1) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(fleet->PromoteBundle(testing::SmallPretrainedBundle(809)).ok());
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fleet->deployment_version(), 2u);
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(fleet->session_stats(s).frames, 480u) << "session " << s;
    EXPECT_GT(fleet->session_stats(s).predictions, 0u) << "session " << s;
    EXPECT_TRUE(fleet->last_prediction(s).has_value()) << "session " << s;
  }
  // The fleet survives a second promotion after the storm.
  EXPECT_TRUE(fleet->PromoteBundle(fleet->ToBundle()).ok());
  EXPECT_EQ(fleet->deployment_version(), 3u);
}

}  // namespace
}  // namespace magneto::platform
