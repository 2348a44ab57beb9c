// Determinism contract of the shared parallel runtime: every pooled hot path
// must produce bit-identical results at any thread count (DESIGN.md,
// "Parallel runtime"). These tests run each workload at 1 and 8 lanes and
// compare raw float bits.

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "magneto.h"

namespace magneto {
namespace {

/// Runs `fn` at `threads` lanes and restores the previous pool size.
template <typename Fn>
auto WithThreads(size_t threads, Fn fn) {
  const size_t saved = ParallelThreads();
  SetParallelThreads(threads);
  auto result = fn();
  SetParallelThreads(saved);
  return result;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": outputs differ between thread counts";
}

Matrix PseudoRandomMatrix(size_t rows, size_t cols, uint64_t salt) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        static_cast<float>(((i + salt) * 2654435761u) % 1009) / 503.0f - 1.0f;
  }
  return m;
}

TEST(ParallelDeterminismTest, MatMulFamilyBitIdenticalAcrossThreadCounts) {
  const Matrix a = PseudoRandomMatrix(300, 217, 1);
  const Matrix b = PseudoRandomMatrix(217, 190, 2);
  const Matrix bt = PseudoRandomMatrix(190, 217, 3);
  const Matrix at = PseudoRandomMatrix(217, 300, 4);

  auto run = [&] {
    return std::tuple{MatMul(a, b), MatMulTransA(at, b), MatMulTransB(a, bt)};
  };
  auto serial = WithThreads(1, run);
  auto threaded = WithThreads(8, run);
  ExpectBitIdentical(std::get<0>(serial), std::get<0>(threaded), "MatMul");
  ExpectBitIdentical(std::get<1>(serial), std::get<1>(threaded),
                     "MatMulTransA");
  ExpectBitIdentical(std::get<2>(serial), std::get<2>(threaded),
                     "MatMulTransB");
}

TEST(ParallelDeterminismTest, PipelineBitIdenticalAcrossThreadCounts) {
  sensors::SyntheticGenerator gen(17);
  const std::vector<sensors::LabeledRecording> corpus =
      gen.GenerateDataset(sensors::DefaultActivityLibrary(), 2, 6.0);

  auto run = [&] {
    preprocess::Pipeline pipeline{preprocess::PipelineConfig{}};
    auto fitted = pipeline.Fit(corpus);
    EXPECT_TRUE(fitted.ok()) << fitted.status().ToString();
    auto processed = pipeline.ProcessLabeled(corpus);
    EXPECT_TRUE(processed.ok()) << processed.status().ToString();
    return std::pair{std::move(fitted).value().ToMatrix(),
                     std::move(processed).value().ToMatrix()};
  };
  auto serial = WithThreads(1, run);
  auto threaded = WithThreads(8, run);
  ExpectBitIdentical(serial.first, threaded.first, "Pipeline::Fit");
  ExpectBitIdentical(serial.second, threaded.second,
                     "Pipeline::ProcessLabeled");
}

TEST(ParallelDeterminismTest, SiameseTrainingBitIdenticalAcrossThreadCounts) {
  // Gaussian-ish blobs, two classes; small net, two epochs.
  sensors::FeatureDataset data;
  for (size_t i = 0; i < 64; ++i) {
    std::vector<float> x(16);
    const int label = static_cast<int>(i % 2);
    for (size_t j = 0; j < x.size(); ++j) {
      x[j] = (label ? 1.0f : -1.0f) +
             static_cast<float>(((i * 31 + j * 7) % 13)) / 13.0f;
    }
    data.Append(x, label);
  }

  auto run = [&] {
    Rng rng(99);
    nn::Sequential net = nn::BuildMlp(16, {32, 8}, &rng);
    learn::TrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    options.seed = 5;
    learn::SiameseTrainer trainer(options);
    auto report = trainer.Train(&net, data);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<Matrix> params;
    for (const Matrix* p : net.Params()) params.push_back(*p);
    return std::pair{std::move(params), report.value().epochs};
  };
  auto serial = WithThreads(1, run);
  auto threaded = WithThreads(8, run);
  ASSERT_EQ(serial.first.size(), threaded.first.size());
  for (size_t i = 0; i < serial.first.size(); ++i) {
    ExpectBitIdentical(serial.first[i], threaded.first[i], "trainer params");
  }
  ASSERT_EQ(serial.second.size(), threaded.second.size());
  for (size_t e = 0; e < serial.second.size(); ++e) {
    EXPECT_EQ(serial.second[e].embedding_loss, threaded.second[e].embedding_loss)
        << "epoch " << e;
  }
}

TEST(ParallelDeterminismTest, FleetStreamsBitIdenticalAcrossThreadCounts) {
  // Multi-session serving inherits the contract: concurrent sessions whose
  // windows land in arbitrary micro-batch compositions must emit the same
  // per-session prediction stream at any pool size — row-independent
  // kernels make a row's result independent of its batch neighbours.
  constexpr size_t kSessions = 6;
  const sensors::ActivityId activities[] = {sensors::kStill, sensors::kWalk,
                                            sensors::kRun};

  auto run = [&] {
    core::CloudConfig config;
    config.backbone_dims = {32, 16};
    config.train.epochs = 4;
    config.train.batch_size = 32;
    config.train.seed = 21;
    config.support_capacity = 12;
    config.seed = 31;
    core::CloudInitializer cloud(config);
    sensors::SyntheticGenerator corpus_gen(61);
    auto bundle = cloud.Initialize(
        corpus_gen.GenerateDataset(sensors::DefaultActivityLibrary(), 2, 4.0),
        sensors::ActivityRegistry::BaseActivities());
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    platform::FleetOptions options;
    options.max_batch = 8;
    auto fleet = platform::EdgeFleet::Create(std::move(bundle).value(),
                                             kSessions, options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();

    std::vector<std::vector<core::Prediction>> streams(kSessions);
    std::vector<std::thread> drivers;
    for (size_t s = 0; s < kSessions; ++s) {
      drivers.emplace_back([&, s] {
        sensors::SyntheticGenerator gen(70 + s);
        sensors::Recording rec = gen.Generate(
            sensors::DefaultActivityLibrary()[activities[s % 3]], 3.0);
        for (size_t i = 0; i < rec.num_samples(); ++i) {
          sensors::Frame frame;
          for (size_t c = 0; c < sensors::kNumChannels; ++c) {
            frame[c] = rec.samples.At(i, c);
          }
          auto pred = fleet.value()->PushFrame(s, frame);
          EXPECT_TRUE(pred.ok());
          if (pred.ok() && pred.value().has_value()) {
            streams[s].push_back(pred.value()->prediction);
          }
        }
      });
    }
    for (auto& t : drivers) t.join();
    return streams;
  };

  const auto serial = WithThreads(1, run);
  const auto threaded = WithThreads(8, run);
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(serial[s].size(), threaded[s].size()) << "session " << s;
    ASSERT_GT(serial[s].size(), 0u) << "session " << s;
    for (size_t i = 0; i < serial[s].size(); ++i) {
      EXPECT_EQ(std::memcmp(&serial[s][i], &threaded[s][i],
                            sizeof(core::Prediction)),
                0)
          << "session " << s << ", window " << i;
    }
  }
}

TEST(TelemetryDeterminismTest, TracingOnDoesNotPerturbResults) {
  // Telemetry must be an observer: with spans and metrics recording, the
  // pipeline still produces bit-identical features at any thread count.
  sensors::SyntheticGenerator gen(23);
  const std::vector<sensors::LabeledRecording> corpus =
      gen.GenerateDataset(sensors::DefaultActivityLibrary(), 2, 5.0);

  obs::SetTraceEnabled(true);
  auto run = [&] {
    preprocess::Pipeline pipeline{preprocess::PipelineConfig{}};
    auto fitted = pipeline.Fit(corpus);
    EXPECT_TRUE(fitted.ok()) << fitted.status().ToString();
    return std::move(fitted).value().ToMatrix();
  };
  auto serial = WithThreads(1, run);
  auto threaded = WithThreads(8, run);
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  ExpectBitIdentical(serial, threaded, "Pipeline::Fit under tracing");
}

TEST(TelemetryDeterminismTest, HistogramSnapshotIdenticalAcrossThreadCounts) {
  // The same deterministic value stream, recorded from inside ParallelFor
  // bodies at different lane counts, must snapshot identically: fixed bucket
  // boundaries, exact counts, and an interleaving-independent sum.
  obs::Histogram* h = obs::Registry::Global().GetHistogram(
      "test.determinism.parallel_hist", {1.0, 10.0, 100.0, 1000.0});

  auto fill_and_snapshot = [&] {
    h->Reset();
    ParallelFor(0, 4096, 16, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        h->Record(static_cast<double>(i % 1500) + 0.125);
      }
    });
    obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
    const obs::Snapshot::HistogramValue* value =
        snap.FindHistogram("test.determinism.parallel_hist");
    EXPECT_NE(value, nullptr);
    return *value;
  };

  const auto serial = WithThreads(1, fill_and_snapshot);
  const auto threaded = WithThreads(8, fill_and_snapshot);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial.count, 4096u);
  EXPECT_EQ(serial.bounds, (std::vector<double>{1.0, 10.0, 100.0, 1000.0}));
}

TEST(TelemetryDeterminismTest, CounterTotalsExactAcrossThreadCounts) {
  obs::Counter* c =
      obs::Registry::Global().GetCounter("test.determinism.parallel_counter");
  auto fill = [&] {
    c->Reset();
    ParallelFor(0, 10000, 7, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) c->Increment();
    });
    return c->value();
  };
  EXPECT_EQ(WithThreads(1, fill), 10000u);
  EXPECT_EQ(WithThreads(8, fill), 10000u);
}

}  // namespace
}  // namespace magneto
