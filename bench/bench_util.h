#ifndef MAGNETO_BENCH_BENCH_UTIL_H_
#define MAGNETO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "magneto.h"

namespace magneto::bench {

/// Version of the BENCH_*.json layout. Bump when a field changes meaning so
/// downstream tooling can tell old artifacts from new ones. v2: emitted via
/// obs::JsonWriter, top-level {"schema_version", "bench", ...}. v3: open-loop
/// fleet runs carry per-stage latency attribution (stage_*_p50/p99_us) and
/// SLO health, BENCH_fleet.json gains a trace_overhead block, and the
/// metrics snapshots move to metrics schema_version 2 (histogram exemplars,
/// optional embedded "health" object).
inline constexpr int kBenchSchemaVersion = 3;

/// Starts a BENCH_*.json document with the common header fields. The caller
/// fills in bench-specific fields and closes the root object.
inline obs::JsonWriter BenchJson(const std::string& bench_name) {
  obs::JsonWriter json(/*pretty=*/true);
  json.BeginObject()
      .Field("schema_version", kBenchSchemaVersion)
      .Field("bench", bench_name);
  return json;
}

/// Adds a "host" object naming the machine a bench ran on: CPU model,
/// hardware threads, the vector ISAs the fp32 GEMM can dispatch to, and the
/// compiler. Timings are only comparable between artifacts from one host.
inline void WriteHostStamp(obs::JsonWriter* json) {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const std::string text(line);
      if (text.rfind("model name", 0) != 0) continue;
      const size_t colon = text.find(':');
      if (colon == std::string::npos) continue;
      cpu = text.substr(colon + 1);
      cpu.erase(0, cpu.find_first_not_of(" \t"));
      cpu.erase(cpu.find_last_not_of(" \t\n") + 1);
      break;
    }
    std::fclose(f);
  }
  std::string isa;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) isa += "avx2 ";
  if (__builtin_cpu_supports("avx512f")) isa += "avx512f ";
  if (__builtin_cpu_supports("avx512vnni")) isa += "avx512vnni ";
  if (!isa.empty()) isa.pop_back();
#endif
  json->Key("host")
      .BeginObject()
      .Field("cpu_model", cpu)
      .Field("hardware_threads",
             static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Field("isa", isa)
      .Field("compiler", std::string("g++ ") + __VERSION__)
      .EndObject();
}

/// Dumps the process-wide metrics registry next to a bench's main artifact
/// (e.g. BENCH_parallel.metrics.json) so each bench run leaves its telemetry
/// behind. Exits on I/O failure like the other bench helpers.
inline void WriteMetricsSnapshot(const std::string& path) {
  const std::string json = obs::Registry::Global().TakeSnapshot().ToJson();
  if (!obs::WriteStringToFile(json, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Benchmark-sized cloud configuration (same shape as the examples').
inline core::CloudConfig BenchCloudConfig() {
  core::CloudConfig config;
  config.backbone_dims = {128, 64, 32};
  config.train.epochs = 15;
  config.train.batch_size = 64;
  config.train.learning_rate = 1e-3;
  config.train.seed = 7;
  config.support_capacity = 50;
  config.selection = core::SelectionStrategy::kHerding;
  config.seed = 11;
  return config;
}

/// The paper's exact architecture, for footprint/latency-faithful rows.
inline core::CloudConfig PaperCloudConfig() {
  core::CloudConfig config = BenchCloudConfig();
  config.backbone_dims = {1024, 512, 128, 64, 128};
  config.support_capacity = 200;
  return config;
}

inline std::vector<sensors::LabeledRecording> BenchCorpus(
    uint64_t seed, size_t per_class = 4, double seconds = 8.0) {
  sensors::SyntheticGenerator gen(seed);
  return gen.GenerateDataset(sensors::DefaultActivityLibrary(), per_class,
                             seconds);
}

/// A population corpus like the paper's collection campaign: every recording
/// comes from a different person (random `UserProfile`), so each class is a
/// *family* of signatures rather than a point. This is the regime where a
/// learned, invariance-inducing embedding earns its keep over raw features.
inline std::vector<sensors::LabeledRecording> HeterogeneousCorpus(
    uint64_t seed, size_t users, size_t recordings_per_user_class = 1,
    double seconds = 8.0, double intensity = 0.6) {
  sensors::ActivityLibrary canonical = sensors::DefaultActivityLibrary();
  std::vector<sensors::LabeledRecording> corpus;
  Rng seeder(seed);
  for (size_t u = 0; u < users; ++u) {
    sensors::UserProfile profile(seeder.engine()(), intensity);
    sensors::SyntheticGenerator gen(seeder.engine()());
    sensors::ActivityLibrary personal = profile.Personalize(canonical);
    Rng ctx_rng(seeder.engine()());
    for (const auto& [id, model] : personal) {
      for (size_t r = 0; r < recordings_per_user_class; ++r) {
        // Each capture happens under its own conditions (time of day,
        // altitude, pocket vs hand, GPS quality).
        sensors::RecordingContext context =
            sensors::RecordingContext::Sample(&ctx_rng);
        corpus.push_back({gen.Generate(context.Apply(model), seconds), id});
      }
    }
  }
  return corpus;
}

inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T Unwrap(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Accuracy of `model` on a labeled feature dataset.
inline double Accuracy(core::EdgeModel* model,
                       const sensors::FeatureDataset& data) {
  auto pairs = Unwrap(model->Predict(data), "predict");
  if (pairs.empty()) return 0.0;
  size_t correct = 0;
  for (const auto& [truth, pred] : pairs) correct += (truth == pred);
  return static_cast<double>(correct) / static_cast<double>(pairs.size());
}

}  // namespace magneto::bench

#endif  // MAGNETO_BENCH_BENCH_UTIL_H_
