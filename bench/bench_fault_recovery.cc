// Fault-recovery sweep over the chunked cloud->edge bundle transport: for a
// grid of injected fault rates (drops plus in-flight corruption), delivers
// the same pretrained bundle over a seeded lossy NetworkLink and reports
// delivery latency, retry cost, and goodput. Every delivery must arrive
// byte-identical (per-chunk CRC + whole-payload CRC) or the bench fails —
// the robustness contract of DESIGN.md, "Fault tolerance & persistence".
//
// Emits BENCH_fault_recovery.json (+ metrics sidecar).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace magneto::bench {
namespace {

struct Row {
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  platform::TransportReport report;
};

int Run() {
  // One small pretrained bundle, reused across every fault rate so rows
  // differ only in link behaviour.
  core::CloudConfig config = BenchCloudConfig();
  config.backbone_dims = {64, 32};
  config.train.epochs = 6;
  core::CloudInitializer cloud(config);
  core::ModelBundle bundle =
      Unwrap(cloud.Initialize(BenchCorpus(33, 2, 6.0),
                              sensors::ActivityRegistry::BaseActivities()),
             "pretrain");
  const std::string payload = bundle.SerializeToString();

  const std::vector<std::pair<double, double>> rates = {
      {0.0, 0.0}, {0.05, 0.01}, {0.1, 0.025},
      {0.2, 0.05}, {0.3, 0.05}, {0.4, 0.1}};

  std::vector<Row> rows;
  for (const auto& [drop, corrupt] : rates) {
    platform::NetworkLink link(50.0, 10.0);
    if (drop > 0.0 || corrupt > 0.0) {
      platform::FaultPolicy policy;
      policy.drop_rate = drop;
      policy.truncate_rate = corrupt / 2.0;
      policy.bit_flip_rate = corrupt / 2.0;
      policy.seed = 17;
      link.SetFaultInjector(
          std::make_unique<platform::FaultInjector>(policy));
    }
    platform::BundleTransport transport(&link, platform::TransportOptions{});
    auto delivered =
        transport.Deliver(platform::Direction::kDownlink,
                          platform::PayloadKind::kModelArtifact, payload);
    if (!delivered.ok()) {
      std::fprintf(stderr, "delivery at drop=%.2f corrupt=%.2f failed: %s\n",
                   drop, corrupt, delivered.status().ToString().c_str());
      return 1;
    }
    if (delivered.value() != payload) {
      std::fprintf(stderr,
                   "delivered bundle not byte-identical at drop=%.2f\n", drop);
      return 1;
    }
    Row row;
    row.drop_rate = drop;
    row.corrupt_rate = corrupt;
    row.report = transport.report();
    rows.push_back(row);
    std::printf(
        "drop %4.0f%%  corrupt %4.1f%%: %5zu attempts (%4zu retries) "
        "%6.2f s  goodput %7.1f KiB/s\n",
        drop * 100.0, corrupt * 100.0, row.report.attempts,
        row.report.retries, row.report.seconds,
        row.report.goodput_bytes_per_s() / 1024.0);
  }

  obs::JsonWriter json = BenchJson("fault_recovery");
  WriteHostStamp(&json);
  json.Field("bundle_bytes", static_cast<uint64_t>(payload.size()))
      .Field("chunk_bytes",
             static_cast<uint64_t>(platform::TransportOptions{}.chunk_bytes))
      .Field("net_seed", static_cast<uint64_t>(17))
      .Key("rows")
      .BeginArray();
  for (const Row& row : rows) {
    json.BeginObject()
        .Field("drop_rate", row.drop_rate)
        .Field("corrupt_rate", row.corrupt_rate)
        .Field("chunks", static_cast<uint64_t>(row.report.chunks))
        .Field("attempts", static_cast<uint64_t>(row.report.attempts))
        .Field("retries", static_cast<uint64_t>(row.report.retries))
        .Field("wire_bytes", static_cast<uint64_t>(row.report.wire_bytes))
        .Field("delivery_seconds", row.report.seconds)
        .Field("backoff_seconds", row.report.backoff_seconds)
        .Field("goodput_bytes_per_s", row.report.goodput_bytes_per_s())
        .Field("byte_identical", true)
        .EndObject();
  }
  json.EndArray().EndObject();
  if (!json.WriteToFile("BENCH_fault_recovery.json")) {
    std::fprintf(stderr, "cannot write BENCH_fault_recovery.json\n");
    return 1;
  }
  std::printf("wrote BENCH_fault_recovery.json\n");
  WriteMetricsSnapshot("BENCH_fault_recovery.metrics.json");
  return 0;
}

}  // namespace
}  // namespace magneto::bench

int main() { return magneto::bench::Run(); }
