#include "platform/protocols.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "platform/privacy_auditor.h"
#include "testing/test_helpers.h"

namespace magneto::platform {
namespace {

class ProtocolsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    server_ = new CloudServer(testing::SmallCloudConfig());
    ASSERT_TRUE(server_
                    ->Pretrain(testing::SmallCorpus(501),
                               sensors::ActivityRegistry::BaseActivities())
                    .ok());
    stream_ = new std::vector<sensors::LabeledRecording>(
        testing::SmallCorpus(502, 1, 4.0));
  }
  static void TearDownTestSuite() {
    delete server_;
    delete stream_;
  }

  static CloudServer* server_;
  static std::vector<sensors::LabeledRecording>* stream_;
};

CloudServer* ProtocolsTest::server_ = nullptr;
std::vector<sensors::LabeledRecording>* ProtocolsTest::stream_ = nullptr;

TEST_F(ProtocolsTest, ServerLifecycle) {
  CloudServer fresh(testing::SmallCloudConfig());
  EXPECT_FALSE(fresh.pretrained());
  EXPECT_EQ(fresh.ServeBundleBytes().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(fresh.RemoteInfer(std::vector<float>(80, 0.0f)).ok());
  EXPECT_TRUE(server_->pretrained());
  EXPECT_GT(server_->ServeBundleBytes().value().size(), 1000u);
}

TEST_F(ProtocolsTest, EdgeProtocolUplinksZeroUserBytes) {
  NetworkLink link(50.0, 10.0);
  EdgeProtocol protocol(server_, &link);
  auto metrics = protocol.Run(*stream_);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().uplink_user_bytes, 0u);
  EXPECT_GT(metrics.value().windows, 0u);
  EXPECT_GT(metrics.value().downlink_bytes, 0u);  // the one-time bundle
  PrivacyAuditor auditor(&link);
  EXPECT_TRUE(auditor.Verify().ok());
}

TEST_F(ProtocolsTest, CloudProtocolLeaksUserData) {
  NetworkLink link(50.0, 10.0);
  // Fresh deserialised pipeline stands in for the device's preprocessing.
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());
  CloudProtocol protocol(server_, &link);
  auto metrics = protocol.Run(*stream_, bundle.value().pipeline);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().uplink_user_bytes, 0u);
  // Exactly one 80-float feature vector per window.
  EXPECT_EQ(metrics.value().uplink_user_bytes,
            metrics.value().windows * 80 * sizeof(float));
  PrivacyAuditor auditor(&link);
  EXPECT_EQ(auditor.Verify().code(), StatusCode::kPermissionDenied);
}

TEST_F(ProtocolsTest, EdgeBeatsCloudOnPerWindowLatency) {
  // Figure 1's headline: once provisioned, edge inference avoids the
  // per-window RTT entirely.
  NetworkLink cloud_link(50.0, 10.0);
  NetworkLink edge_link(50.0, 10.0);
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());

  auto cloud = CloudProtocol(server_, &cloud_link)
                   .Run(*stream_, bundle.value().pipeline);
  auto edge = EdgeProtocol(server_, &edge_link).Run(*stream_);
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(edge.ok());
  EXPECT_LT(edge.value().mean_window_latency_s,
            cloud.value().mean_window_latency_s);
  // The cloud loop pays at least the full RTT per window (50 ms here).
  EXPECT_GE(cloud.value().mean_window_latency_s, 0.05);
  // Local inference is the paper's "few milliseconds".
  EXPECT_LT(edge.value().mean_window_latency_s, 0.05);
}

TEST_F(ProtocolsTest, SameModelSameAccuracy) {
  // Both protocols serve the same weights; accuracy must agree.
  NetworkLink link1(50.0, 10.0), link2(50.0, 10.0);
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());
  auto cloud = CloudProtocol(server_, &link1)
                   .Run(*stream_, bundle.value().pipeline);
  auto edge = EdgeProtocol(server_, &link2).Run(*stream_);
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(edge.ok());
  EXPECT_NEAR(cloud.value().accuracy, edge.value().accuracy, 1e-9);
  EXPECT_EQ(cloud.value().windows, edge.value().windows);
}

TEST_F(ProtocolsTest, RawUplinkCostsMoreThanFeatureUplink) {
  NetworkLink features_link(50.0, 10.0);
  NetworkLink raw_link(50.0, 10.0);
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());
  auto features = CloudProtocol(server_, &features_link)
                      .Run(*stream_, bundle.value().pipeline, false);
  auto raw = CloudProtocol(server_, &raw_link)
                 .Run(*stream_, bundle.value().pipeline, true);
  ASSERT_TRUE(features.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_GT(raw.value().uplink_user_bytes,
            features.value().uplink_user_bytes * 5);
}

TEST_F(ProtocolsTest, EnergyAccountingSplitsCpuAndRadio) {
  NetworkLink cloud_link(50.0, 10.0);
  NetworkLink edge_link(50.0, 10.0);
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());
  auto cloud = CloudProtocol(server_, &cloud_link)
                   .Run(*stream_, bundle.value().pipeline);
  auto edge = EdgeProtocol(server_, &edge_link).Run(*stream_);
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(edge.ok());

  // Cloud protocol: energy dominated by radio time (RTT per window).
  EXPECT_GT(cloud.value().radio_joules, 0.0);
  EXPECT_GT(cloud.value().network_seconds, 1.0);  // 60 windows x >= 50 ms RTT
  EXPECT_GT(cloud.value().radio_joules, cloud.value().cpu_joules);

  // Edge protocol: tiny one-time radio cost, the rest is local compute.
  EXPECT_GT(edge.value().cpu_joules, 0.0);
  EXPECT_LT(edge.value().network_seconds, 0.5);
  EXPECT_DOUBLE_EQ(edge.value().total_joules(),
                   edge.value().cpu_joules + edge.value().radio_joules);
  // And the edge total is far below the cloud total.
  EXPECT_LT(edge.value().total_joules(), cloud.value().total_joules() / 5);
}

TEST_F(ProtocolsTest, EdgeDeviceProvisionRejectsCorruptBundle) {
  std::string bytes = server_->ServeBundleBytes().value();
  bytes[bytes.size() / 2] ^= 1;
  EXPECT_FALSE(EdgeDevice::Provision(bytes, core::IncrementalOptions{}).ok());
}

TEST_F(ProtocolsTest, ProvisionedDeviceReportsBundleSize) {
  const std::string bytes = server_->ServeBundleBytes().value();
  auto device = EdgeDevice::Provision(bytes, core::IncrementalOptions{});
  ASSERT_TRUE(device.ok());
  EXPECT_EQ(device.value().provisioned_bytes(), bytes.size());
  EXPECT_EQ(device.value().runtime().model().registry().size(), 5u);
}

TEST_F(ProtocolsTest, ServeQuantizedBundleIsWireV3AndSmaller) {
  const std::string fp32 = server_->ServeBundleBytes().value();
  auto quant = server_->ServeQuantizedBundleBytes();
  ASSERT_TRUE(quant.ok()) << quant.status();
  EXPECT_LT(quant.value().size(), fp32.size() / 2);
  auto bundle = core::ModelBundle::FromString(quant.value());
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle.value().wire_version, core::kBundleWireV3);
  // Lazily cached: a second call serves the identical bytes.
  EXPECT_EQ(server_->ServeQuantizedBundleBytes().value(), quant.value());
}

// The quantized-vs-fp32 agreement scenario: both protocols classify the same
// synthetic stream; the int8 bundle must cost a fraction of the downlink
// bytes (the privacy auditor reads it off the link) and stay within the
// paper-replication accuracy tolerance of the fp32 deployment.
TEST_F(ProtocolsTest, QuantizedEdgeProtocolShrinksDownlinkAndAgrees) {
  NetworkLink fp_link(50.0, 10.0);
  NetworkLink q_link(50.0, 10.0);
  EdgeProtocol fp32(server_, &fp_link);
  EdgeProtocol quant(server_, &q_link, /*quantized_bundle=*/true);
  auto m_fp = fp32.Run(*stream_);
  ASSERT_TRUE(m_fp.ok()) << m_fp.status();
  auto m_q = quant.Run(*stream_);
  ASSERT_TRUE(m_q.ok()) << m_q.status();

  EXPECT_EQ(m_q.value().protocol, "edge(int8)");
  EXPECT_EQ(m_q.value().uplink_user_bytes, 0u);
  EXPECT_TRUE(PrivacyAuditor(&q_link).Verify().ok());

  const size_t fp_bytes = PrivacyAuditor(&fp_link).BundleBytesDownlinked();
  const size_t q_bytes = PrivacyAuditor(&q_link).BundleBytesDownlinked();
  ASSERT_GT(fp_bytes, 0u);
  ASSERT_GT(q_bytes, 0u);
  EXPECT_LT(q_bytes, fp_bytes / 2);  // bench_quant pins ~4x at paper scale

  EXPECT_EQ(m_q.value().windows, m_fp.value().windows);
  EXPECT_NEAR(m_q.value().accuracy, m_fp.value().accuracy, 0.05);
}

// Regression: CloudProtocol::Run never timed the device-side preprocessing,
// so the cloud column of the energy comparison reported cpu_joules == 0 — a
// free lunch for the architecture the paper argues against.
TEST_F(ProtocolsTest, CloudProtocolAccountsPreprocessCompute) {
  NetworkLink link(50.0, 10.0);
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());
  auto metrics = CloudProtocol(server_, &link)
                     .Run(*stream_, bundle.value().pipeline);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().compute_seconds, 0.0);
  EXPECT_GT(metrics.value().cpu_joules, 0.0);
  // Compute shows up in the end-to-end latency too, not just the energy.
  EXPECT_GE(metrics.value().total_latency_s, metrics.value().compute_seconds);
}

// ProtocolMetrics invariants when one link is reused across runs WITHOUT
// Reset(): byte counters read the link's cumulative ledger, so run k reports
// the sum of runs 1..k — exactly (documented in protocols.h).
TEST_F(ProtocolsTest, ByteCountersAccumulateAcrossRunsWithoutReset) {
  NetworkLink link(50.0, 10.0);
  auto bundle = core::ModelBundle::FromString(
      server_->ServeBundleBytes().value());
  ASSERT_TRUE(bundle.ok());
  CloudProtocol protocol(server_, &link);
  auto first = protocol.Run(*stream_, bundle.value().pipeline);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().uplink_user_bytes,
            link.TotalBytes(Direction::kUplink, PayloadKind::kUserData));

  auto second = protocol.Run(*stream_, bundle.value().pipeline);
  ASSERT_TRUE(second.ok());
  // Deterministic stream, same run: the ledger doubles exactly.
  EXPECT_EQ(second.value().uplink_user_bytes,
            2 * first.value().uplink_user_bytes);
  EXPECT_EQ(second.value().downlink_bytes, 2 * first.value().downlink_bytes);
  EXPECT_EQ(second.value().uplink_user_bytes,
            link.TotalBytes(Direction::kUplink, PayloadKind::kUserData));

  // After Reset() the next run reports single-run numbers again.
  link.Reset();
  auto third = protocol.Run(*stream_, bundle.value().pipeline);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().uplink_user_bytes, first.value().uplink_user_bytes);
}

// Many devices provisioning and classifying concurrently against ONE shared
// CloudServer: each thread owns its link and protocol, the server's bundle
// caches and model are shared. Run under TSan via check.sh; the fp32/int8
// split makes half the threads race the quantized-cache build.
TEST_F(ProtocolsTest, MultiDeviceConcurrentEdgeProtocolRuns) {
  constexpr size_t kDevices = 6;
  std::vector<Result<ProtocolMetrics>> results(
      kDevices, Status::Internal("not run"));
  std::vector<std::thread> devices;
  for (size_t d = 0; d < kDevices; ++d) {
    devices.emplace_back([&, d] {
      NetworkLink link(50.0, 10.0);
      EdgeProtocol protocol(server_, &link, /*quantized_bundle=*/d % 2 == 1);
      results[d] = protocol.Run(*stream_);
    });
  }
  for (std::thread& t : devices) t.join();

  ASSERT_TRUE(results[0].ok()) << results[0].status();
  const ProtocolMetrics& fp32 = results[0].value();
  for (size_t d = 1; d < kDevices; ++d) {
    ASSERT_TRUE(results[d].ok()) << "device " << d << ": "
                                 << results[d].status();
    const ProtocolMetrics& m = results[d].value();
    EXPECT_EQ(m.windows, fp32.windows);
    EXPECT_EQ(m.uplink_user_bytes, 0u);
    if (d % 2 == 0) {
      // Same protocol, same model, independent links: identical accuracy.
      EXPECT_NEAR(m.accuracy, fp32.accuracy, 1e-12);
    } else {
      EXPECT_NEAR(m.accuracy, fp32.accuracy, 0.05);  // int8 tolerance
    }
  }
}

}  // namespace
}  // namespace magneto::platform
