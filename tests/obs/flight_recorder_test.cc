// Flight recorder contract: a bounded lock-free ring of the most recent
// per-request records, deterministic id-sorted dumps, shed-burst anomaly
// detection with auto-dump, and torn-read-free snapshots under concurrent
// producers (the seqlock property TSan exercises in check.sh).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "testing/test_helpers.h"

namespace magneto::obs {
namespace {

/// A record whose every field is a deterministic function of `id`, so a
/// reader can verify a snapshot entry was not assembled from two different
/// writes (the torn-read check in ConcurrentProducers).
FlightRecord MakeRecord(uint64_t id) {
  FlightRecord record;
  record.id = id;
  record.session = static_cast<uint32_t>(id % 7);
  record.batch_size = static_cast<uint32_t>(id % 13);
  record.deployment_version = id * 3;
  record.outcome = static_cast<FlightRecord::Outcome>(id % 3);
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    record.stage_ns[i] = id * 1000 + i;
  }
  return record;
}

void ExpectConsistent(const FlightRecord& r) {
  ASSERT_NE(r.id, 0u);
  EXPECT_EQ(r.session, static_cast<uint32_t>(r.id % 7));
  EXPECT_EQ(r.batch_size, static_cast<uint32_t>(r.id % 13));
  EXPECT_EQ(r.deployment_version, r.id * 3);
  EXPECT_EQ(static_cast<uint64_t>(r.outcome), r.id % 3);
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    EXPECT_EQ(r.stage_ns[i], r.id * 1000 + i);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FlightRecorderTest, SnapshotIsSortedByRequestId) {
  FlightRecorder recorder(8);
  for (uint64_t id : {5u, 2u, 9u, 1u}) recorder.Record(MakeRecord(id));
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[1].id, 2u);
  EXPECT_EQ(records[2].id, 5u);
  EXPECT_EQ(records[3].id, 9u);
  for (const FlightRecord& r : records) ExpectConsistent(r);
}

TEST(FlightRecorderTest, RingKeepsOnlyTheNewestRecords) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (uint64_t id = 1; id <= 10; ++id) recorder.Record(MakeRecord(id));
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Slots are claimed round-robin, so the survivors are the last 4 writes.
  EXPECT_EQ(records[0].id, 7u);
  EXPECT_EQ(records[3].id, 10u);
}

TEST(FlightRecorderTest, TinyCapacityIsRoundedUpToTwo) {
  FlightRecorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 2u);
}

TEST(FlightRecorderTest, StageUsDecomposesAdjacentIntervals) {
  FlightRecord r;
  r.stage_ns[static_cast<size_t>(RequestStage::kAdmit)] = 1000;
  r.stage_ns[static_cast<size_t>(RequestStage::kDequeue)] = 4000;
  EXPECT_DOUBLE_EQ(r.StageUs(RequestStage::kAdmit, RequestStage::kDequeue),
                   3.0);
  // A missing stamp (or a never-reached stage) yields 0, not garbage.
  EXPECT_DOUBLE_EQ(r.StageUs(RequestStage::kDequeue, RequestStage::kPublish),
                   0.0);
  EXPECT_DOUBLE_EQ(r.StageUs(RequestStage::kDequeue, RequestStage::kAdmit),
                   0.0);
}

TEST(FlightRecorderTest, JsonDumpHasStageAttributionAndOutcomes) {
  FlightRecorder recorder(8);
  FlightRecord ok;
  ok.id = 11;
  ok.stage_ns[static_cast<size_t>(RequestStage::kAdmit)] = 1000;
  ok.stage_ns[static_cast<size_t>(RequestStage::kDequeue)] = 2000;
  ok.stage_ns[static_cast<size_t>(RequestStage::kEmbedStart)] = 3000;
  ok.stage_ns[static_cast<size_t>(RequestStage::kEmbedEnd)] = 5000;
  ok.stage_ns[static_cast<size_t>(RequestStage::kClassifyEnd)] = 6000;
  ok.stage_ns[static_cast<size_t>(RequestStage::kPublish)] = 7000;
  recorder.Record(ok);
  recorder.RecordShed(12, 0);

  const std::string json = recorder.ToJson(/*pretty=*/false);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"shed\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_us\":1"), std::string::npos);
  EXPECT_NE(json.find("\"embed_us\":2"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_us\":6"), std::string::npos);
}

TEST(FlightRecorderTest, ShedBurstRaisesAnomalyOncePerBurst) {
  FlightRecorder recorder(16);
  recorder.SetShedBurstThreshold(3);
  Counter* bursts = Registry::Global().GetCounter("flight.anomaly.shed_burst");
  const uint64_t before = bursts->value();

  // A sustained burst fires exactly once at the threshold...
  for (uint64_t id = 1; id <= 5; ++id) recorder.RecordShed(id, 0);
  EXPECT_EQ(bursts->value(), before + 1);

  // ...an admission re-arms the detector, and the next burst fires again.
  recorder.NoteAdmit();
  for (uint64_t id = 6; id <= 8; ++id) recorder.RecordShed(id, 0);
  EXPECT_EQ(bursts->value(), before + 2);
}

TEST(FlightRecorderTest, AnomalyAutoDumpsToConfiguredPath) {
  const std::string path =
      testing::UniqueTempPath("flight_recorder_autodump.json");
  std::remove(path.c_str());

  FlightRecorder recorder(8);
  recorder.SetAutoDumpPath(path);
  recorder.SetShedBurstThreshold(2);
  recorder.Record(MakeRecord(21));
  recorder.RecordShed(22, 0);
  recorder.RecordShed(23, 0);  // threshold reached -> auto-dump

  const std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty()) << "anomaly did not auto-dump to " << path;
  EXPECT_NE(dump.find("\"last_anomaly\": \"shed_burst\""), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"outcome\": \"shed\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ClearEmptiesTheRingButKeepsConfig) {
  FlightRecorder recorder(8);
  recorder.SetShedBurstThreshold(5);
  recorder.Record(MakeRecord(31));
  ASSERT_EQ(recorder.Snapshot().size(), 1u);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.shed_burst_threshold(), 5u);
}

TEST(FlightRecorderTest, ConcurrentProducers) {
  // 8 producers lap a small ring while a reader snapshots under fire: the
  // per-slot seqlock must never let a snapshot contain a record stitched
  // together from two different writes. Every field is a function of the id,
  // so any torn read is detectable.
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 4000;
  FlightRecorder recorder(64);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightRecord& r : recorder.Snapshot()) ExpectConsistent(r);
    }
  });

  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeRecord(t * kPerThread + i + 1));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const std::vector<FlightRecord> records = recorder.Snapshot();
  // Contended writers may drop records (a lapped slot), never corrupt them.
  EXPECT_LE(records.size(), recorder.capacity());
  EXPECT_FALSE(records.empty());
  for (const FlightRecord& r : records) ExpectConsistent(r);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].id, records[i].id);  // sorted, no duplicates
  }
}

}  // namespace
}  // namespace magneto::obs
