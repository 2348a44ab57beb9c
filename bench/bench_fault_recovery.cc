// Fault-recovery sweep over the chunked cloud->edge bundle transport: for a
// grid of injected fault rates (drops plus in-flight corruption), delivers
// the same pretrained bundle over a seeded lossy NetworkLink once per seed
// (each seed drives both the fault injector and the backoff jitter) and
// reports the median, p95 and max of delivery latency and retries, and the
// median, p5 and min of goodput (its bad tail is the low end). Every delivery
// must arrive byte-identical (per-chunk CRC + whole-payload CRC) or the bench
// fails — the robustness contract of DESIGN.md, "Fault tolerance &
// persistence".
//
// Emits BENCH_fault_recovery.json (+ metrics sidecar).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace magneto::bench {
namespace {

// 200 seeds leave 10 deliveries beyond the p95 (and below the p5), so the
// reported tail rests on more than one or two samples.
constexpr uint64_t kSeeds = 200;

/// Three order statistics of one quantity over the seeds.
struct Spread {
  double center = 0.0;   ///< median
  double tail = 0.0;     ///< p95, or p5 for a higher-is-better quantity
  double extreme = 0.0;  ///< max, or min for a higher-is-better quantity
};

Spread Summarize(const std::vector<float>& values, bool higher_is_better) {
  Spread spread;
  spread.center = stats::Quantile(values, 0.5);
  spread.tail = stats::Quantile(values, higher_is_better ? 0.05 : 0.95);
  spread.extreme = higher_is_better ? stats::Min(values.data(), values.size())
                                    : stats::Max(values.data(), values.size());
  return spread;
}

struct Row {
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  size_t chunks = 0;
  Spread seconds;
  Spread retries;
  Spread goodput;
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
    std::vector<float> seconds, retries, goodput;
    size_t chunks = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      platform::NetworkLink link(50.0, 10.0);
      if (drop > 0.0 || corrupt > 0.0) {
        platform::FaultPolicy policy;
        policy.drop_rate = drop;
        policy.truncate_rate = corrupt / 2.0;
        policy.bit_flip_rate = corrupt / 2.0;
        policy.seed = seed;
        link.SetFaultInjector(
            std::make_unique<platform::FaultInjector>(policy));
      }
      platform::TransportOptions options;
      options.jitter_seed = seed;
      platform::BundleTransport transport(&link, options);
      auto delivered =
          transport.Deliver(platform::Direction::kDownlink,
                            platform::PayloadKind::kModelArtifact, payload);
      if (!delivered.ok()) {
        std::fprintf(stderr,
                     "delivery at drop=%.2f corrupt=%.2f seed=%llu failed: "
                     "%s\n",
                     drop, corrupt, static_cast<unsigned long long>(seed),
                     delivered.status().ToString().c_str());
        return 1;
      }
      if (delivered.value() != payload) {
        std::fprintf(stderr,
                     "delivered bundle not byte-identical at drop=%.2f "
                     "seed=%llu\n",
                     drop, static_cast<unsigned long long>(seed));
        return 1;
      }
      const platform::TransportReport& report = transport.report();
      chunks = report.chunks;
      seconds.push_back(static_cast<float>(report.seconds));
      retries.push_back(static_cast<float>(report.retries));
      goodput.push_back(static_cast<float>(report.goodput_bytes_per_s()));
    }
    Row row;
    row.drop_rate = drop;
    row.corrupt_rate = corrupt;
    row.chunks = chunks;
    row.seconds = Summarize(seconds, false);
    row.retries = Summarize(retries, false);
    row.goodput = Summarize(goodput, true);
    rows.push_back(row);
    std::printf(
        "drop %4.0f%%  corrupt %4.1f%%: retries %4.1f/%4.1f/%4.0f  "
        "seconds %5.2f/%5.2f/%5.2f  goodput %7.1f/%7.1f/%7.1f KiB/s "
        "(median/p95/max, goodput median/p5/min, %llu seeds)\n",
        drop * 100.0, corrupt * 100.0, row.retries.center, row.retries.tail,
        row.retries.extreme, row.seconds.center, row.seconds.tail,
        row.seconds.extreme, row.goodput.center / 1024.0,
        row.goodput.tail / 1024.0, row.goodput.extreme / 1024.0,
        static_cast<unsigned long long>(kSeeds));
  }

  obs::JsonWriter json = BenchJson("fault_recovery");
  WriteHostStamp(&json);
  json.Field("bundle_bytes", static_cast<uint64_t>(payload.size()))
      .Field("chunk_bytes",
             static_cast<uint64_t>(platform::TransportOptions{}.chunk_bytes))
      .Field("seeds", kSeeds)
      .Key("rows")
      .BeginArray();
  for (const Row& row : rows) {
    json.BeginObject()
        .Field("drop_rate", row.drop_rate)
        .Field("corrupt_rate", row.corrupt_rate)
        .Field("seeds", kSeeds)
        .Field("chunks", static_cast<uint64_t>(row.chunks))
        .Key("delivery_seconds")
        .BeginObject()
        .Field("median", row.seconds.center)
        .Field("p95", row.seconds.tail)
        .Field("max", row.seconds.extreme)
        .EndObject()
        .Key("retries")
        .BeginObject()
        .Field("median", row.retries.center)
        .Field("p95", row.retries.tail)
        .Field("max", row.retries.extreme)
        .EndObject()
        .Key("goodput_bytes_per_s")
        .BeginObject()
        .Field("median", row.goodput.center)
        .Field("p5", row.goodput.tail)
        .Field("min", row.goodput.extreme)
        .EndObject()
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
