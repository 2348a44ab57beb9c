/// magneto — command-line front end to the MAGNETO platform.
///
///   magneto pretrain --out model.magneto [--users N] [--seconds S]
///                    [--epochs E] [--support K] [--paper-backbone]
///       Runs the offline cloud step on a synthetic multi-user corpus and
///       writes the transferable bundle.
///
///   magneto inspect <bundle>
///       Prints the bundle's architecture, classes, and size breakdown.
///
///   magneto simulate --bundle <bundle> [--activity NAME] [--seconds S]
///                    [--user-intensity X] [--rtt-ms MS] [--mbps M]
///                    [--fault-drop-rate P] [--fault-corrupt-rate P]
///                    [--net-seed N] [--chunk-bytes B]
///       Streams synthetic sensor data through the edge runtime and prints
///       the live predictions. Provisioning crosses a simulated lossy link
///       via the chunked fault-tolerant transport: --fault-drop-rate drops
///       whole chunk frames, --fault-corrupt-rate corrupts them in flight
///       (half truncations, half bit-flips), --net-seed makes the fault
///       sequence reproducible.
///
///   magneto learn --bundle <bundle> --out <bundle> --name NAME
///                 [--gesture-seed N] [--seconds S] [--fail-step STEP]
///       On-device incremental learning of a new synthetic gesture. The
///       update is transactional: on commit the updated bundle is
///       checkpointed to --out (the pre-update state rotates to
///       <out>.lkg); on rollback --out still holds the pre-update model
///       and the capture can be retried. --fail-step
///       preprocess|train|support|prototypes injects a failure at that
///       update step (test/CI hook) and exits 0 after verifying the
///       rollback.
///
///   magneto calibrate --bundle <bundle> --out <bundle> --activity NAME
///                     [--user-intensity X] [--seconds S]
///       Re-calibrates an existing activity to a personalised style.
///
///   magneto compress --bundle <bundle> --out <bundle>
///                    [--method int8|student|lowrank] [--student-dims N]
///       Produces an inference-only compressed deployment bundle.
///
///   magneto fleet --bundle <bundle> [--sessions N] [--seconds S]
///                 [--max-batch B] [--threads T] [--promote 0|1]
///                 [--open-loop 0|1] [--rate R] [--windows W]
///                 [--serve-threads T] [--queue C] [--concurrent-batches B]
///       Serves N concurrent user sessions from one shared deployment
///       (platform::EdgeFleet): each session streams a personalised
///       synthetic activity from its own thread while embedding forwards
///       are micro-batched across sessions. With --promote 1 (default) a
///       copy-on-swap bundle promotion lands mid-run to demonstrate that
///       classification never stalls. Prints per-session results and
///       aggregate throughput.
///       With --open-loop 1 the closed PushFrame loop is replaced by an
///       open-loop generator: W pre-featurized windows arrive as a Poisson
///       process at R windows/s (0 = as fast as possible), admitted into a
///       C-slot bounded queue drained by T serve workers with up to B
///       micro-batches embedding concurrently. Arrivals past a full queue
///       are shed, the backlog is what makes cross-session micro-batches
///       actually form (watch "mean batch" exceed 1 as R climbs past the
///       service capacity).
///
///   magneto collect --out data.msns [--users N] [--seconds S] [--seed N]
///       Writes a synthetic multi-user collection campaign to disk.
///
///   magneto crossval [--data data.msns | --users N] [--folds K]
///       k-fold cross-validation of the cloud recipe at recording level.
///
///   magneto export-csv --bundle <bundle> --data data.msns --out features.csv
///       Runs a campaign through the bundle's preprocessing pipeline and
///       writes the normalised features as CSV for external analysis.
///
/// Telemetry flags, valid with every subcommand:
///   --metrics-out FILE   after the command, write the metrics registry
///                        snapshot (counters/gauges/histograms) as JSON
///   --trace-out FILE     enable tracing for the run and write a Chrome
///                        trace_event JSON (open in chrome://tracing or
///                        https://ui.perfetto.dev). Serving requests and
///                        bundle deliveries carry flow events, so one
///                        window is causally linked across threads.
///   --flight-record-out FILE
///                        write the flight recorder ring (the last ~4096
///                        requests: stage timings, batch size, outcome) as
///                        JSON after the run; the same path receives an
///                        automatic dump when an anomaly fires mid-run
///                        (shed burst, update rollback, checkpoint
///                        fallback).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "magneto.h"

namespace {

using namespace magneto;

/// Minimal flag parser: --key value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      values_[argv[i] + 2] = argv[i + 1];
    }
    for (int i = first; i < argc; ++i) {
      if (std::strcmp(argv[i], "--paper-backbone") == 0) {
        flags_["paper-backbone"] = true;
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  bool GetFlag(const std::string& key) const { return flags_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "error: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

std::vector<sensors::LabeledRecording> SyntheticCorpus(uint64_t seed,
                                                       size_t users,
                                                       double seconds) {
  sensors::ActivityLibrary canonical = sensors::DefaultActivityLibrary();
  std::vector<sensors::LabeledRecording> corpus;
  Rng seeder(seed);
  for (size_t u = 0; u < users; ++u) {
    sensors::UserProfile profile(seeder.engine()(), 0.6);
    sensors::SyntheticGenerator gen(seeder.engine()());
    Rng ctx_rng(seeder.engine()());
    for (const auto& [id, model] : profile.Personalize(canonical)) {
      sensors::RecordingContext ctx =
          sensors::RecordingContext::Sample(&ctx_rng);
      corpus.push_back({gen.Generate(ctx.Apply(model), seconds), id});
    }
  }
  return corpus;
}

int CmdPretrain(const Args& args) {
  const std::string out = args.Get("out", "model.magneto");
  core::CloudConfig config;
  if (args.GetFlag("paper-backbone")) {
    config.backbone_dims = {1024, 512, 128, 64, 128};
  } else {
    config.backbone_dims = {128, 64, 32};
  }
  config.train.epochs = static_cast<size_t>(args.GetInt("epochs", 20));
  config.support_capacity = static_cast<size_t>(args.GetInt("support", 50));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 11));

  std::vector<sensors::LabeledRecording> corpus;
  const std::string data = args.Get("data", "");
  if (!data.empty()) {
    auto loaded = sensors::LoadRecordings(data);
    if (!loaded.ok()) return Fail(loaded.status(), "load campaign");
    corpus = std::move(loaded).value();
    std::printf("pretraining on %zu recordings from %s\n", corpus.size(),
                data.c_str());
  } else {
    const size_t users = static_cast<size_t>(args.GetInt("users", 8));
    const double seconds = args.GetDouble("seconds", 8.0);
    std::printf(
        "pretraining on %zu synthetic users x 5 activities x %.0f s\n",
        users, seconds);
    corpus = SyntheticCorpus(config.seed, users, seconds);
  }

  core::CloudInitializer cloud(config);
  core::CloudReport report;
  auto bundle = cloud.Initialize(corpus,
                                 sensors::ActivityRegistry::BaseActivities(),
                                 &report);
  if (!bundle.ok()) return Fail(bundle.status(), "pretrain");
  Status saved = bundle.value().SaveToFile(out);
  if (!saved.ok()) return Fail(saved, "save");
  std::printf("trained on %zu windows (final loss %.4f)\n",
              report.training_windows, report.train.final_embedding_loss());
  std::printf("wrote %s (%.1f KiB)\n", out.c_str(),
              report.bundle_bytes / 1024.0);
  return 0;
}

int CmdInspect(const std::string& path) {
  auto bundle = core::ModelBundle::LoadFromFile(path);
  if (!bundle.ok()) return Fail(bundle.status(), "load");
  const core::ModelBundle& b = bundle.value();
  std::printf("bundle: %s\n", path.c_str());
  std::printf("  serialized: %.1f KiB (wire v%u%s)\n",
              b.SerializedBytes() / 1024.0, b.wire_version,
              b.classifier.quantized() ? ", int8 scans" : "");
  std::printf("  backbone (%zu params, %.1f KiB):\n",
              b.backbone.NumParameters(),
              b.backbone.NumParameters() * sizeof(float) / 1024.0);
  std::string summary = b.backbone.Summary();
  for (size_t pos = 0; pos < summary.size();) {
    const size_t eol = summary.find('\n', pos);
    std::printf("    %s\n", summary.substr(pos, eol - pos).c_str());
    pos = eol == std::string::npos ? summary.size() : eol + 1;
  }
  std::printf("  features: %zu-dim, normaliser %s\n",
              b.pipeline.feature_dim(),
              b.pipeline.fitted() ? "fitted" : "NOT FITTED");
  std::printf("  activities (%zu):\n", b.registry.size());
  for (sensors::ActivityId id : b.registry.Ids()) {
    std::printf("    %2lld  %-14s support=%zu%s\n",
                static_cast<long long>(id),
                b.registry.NameOf(id).ValueOrDie().c_str(),
                b.support.ClassSize(id),
                b.classifier.HasClass(id) ? "" : "  (no prototype!)");
  }
  std::printf("  support set: %zu exemplars, %.1f KiB (capacity %zu/class)\n",
              b.support.TotalSize(), b.support.MemoryBytes() / 1024.0,
              b.support.capacity_per_class());
  return 0;
}

int CmdSimulate(const Args& args) {
  auto bundle = core::ModelBundle::LoadFromFile(args.Get("bundle", ""));
  if (!bundle.ok()) return Fail(bundle.status(), "load");
  const std::string activity = args.Get("activity", "Walk");
  const double seconds = args.GetDouble("seconds", 6.0);
  const double intensity = args.GetDouble("user-intensity", 0.0);

  // Model the cloud -> edge provisioning step: the bundle is the only thing
  // that crosses the link (MAGNETO's privacy contract: no user data uplink).
  // Delivery uses the chunked fault-tolerant transport so an injected-fault
  // link still yields a byte-identical, CRC-verified bundle.
  platform::NetworkLink link(args.GetDouble("rtt-ms", 50.0),
                             args.GetDouble("mbps", 10.0));
  const double drop_rate = args.GetDouble("fault-drop-rate", 0.0);
  const double corrupt_rate = args.GetDouble("fault-corrupt-rate", 0.0);
  if (drop_rate > 0.0 || corrupt_rate > 0.0) {
    platform::FaultPolicy policy;
    policy.drop_rate = drop_rate;
    policy.truncate_rate = corrupt_rate / 2.0;
    policy.bit_flip_rate = corrupt_rate / 2.0;
    policy.seed = static_cast<uint64_t>(args.GetInt("net-seed", 1));
    link.SetFaultInjector(std::make_unique<platform::FaultInjector>(policy));
  }
  platform::TransportOptions transport_options;
  transport_options.chunk_bytes =
      static_cast<size_t>(args.GetInt("chunk-bytes", 4096));
  platform::BundleTransport transport(&link, transport_options);
  const std::string sent_bytes = bundle.value().SerializeToString();
  auto delivered = transport.Deliver(platform::Direction::kDownlink,
                                     platform::PayloadKind::kModelArtifact,
                                     sent_bytes);
  if (!delivered.ok()) return Fail(delivered.status(), "provision transport");
  const platform::TransportReport& report = transport.report();
  std::printf("provisioned %.1f KiB bundle in %.2f s "
              "(rtt %.0f ms, %.0f Mbit/s; %zu chunks, %zu retries)\n",
              sent_bytes.size() / 1024.0, report.seconds, link.rtt_ms(),
              link.bandwidth_mbps(), report.chunks, report.retries);
  // Re-parse from the delivered bytes: the device boots from what actually
  // crossed the (possibly lossy) link, proving end-to-end integrity.
  std::printf("delivery: wire v%u, byte-identical: %s\n",
              bundle.value().wire_version,
              delivered.value() == sent_bytes ? "yes" : "NO");
  bundle = core::ModelBundle::FromString(delivered.value());
  if (!bundle.ok()) return Fail(bundle.status(), "delivered bundle");

  auto id = bundle.value().registry.IdOf(activity);
  sensors::ActivityLibrary lib = sensors::DefaultActivityLibrary();
  sensors::SignalModel model;
  if (id.ok() && lib.count(id.value())) {
    model = lib[id.value()];
  } else {
    std::printf("note: '%s' has no canonical generator; using a gesture "
                "signature seeded from the name hash\n",
                activity.c_str());
    uint64_t h = 1469598103934665603ull;
    for (char c : activity) h = (h ^ static_cast<uint64_t>(c)) * 1099511628211ull;
    model = sensors::MakeGestureModel(h);
  }
  if (intensity > 0.0) {
    model = sensors::UserProfile(99, intensity).Personalize(model);
  }

  core::SupportSet support = std::move(bundle.value().support);
  core::EdgeModel edge = std::move(bundle).value().ToEdgeModel();
  core::EdgeRuntime runtime(std::move(edge), std::move(support), {});

  sensors::SyntheticGenerator gen(42);
  sensors::Recording rec = gen.Generate(model, seconds);
  std::printf("%8s  %-14s %10s\n", "t", "prediction", "confidence");
  double t = 0.0;
  for (size_t i = 0; i < rec.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = rec.samples.At(i, c);
    }
    auto pred = runtime.PushFrame(frame);
    if (!pred.ok()) return Fail(pred.status(), "inference");
    if (pred.value().has_value()) {
      std::printf("%7.1fs  %-14s %9.2f\n", t, pred.value()->name.c_str(),
                  pred.value()->prediction.confidence);
    }
    t += 1.0 / rec.sample_rate_hz;
  }
  return 0;
}

/// Maps a `--fail-step` name to the update step it should sabotage.
bool ParseUpdateStep(const std::string& name, core::UpdateStep* step) {
  if (name == "preprocess") *step = core::UpdateStep::kPreprocess;
  else if (name == "train") *step = core::UpdateStep::kTrain;
  else if (name == "support") *step = core::UpdateStep::kSupportSet;
  else if (name == "prototypes") *step = core::UpdateStep::kPrototypes;
  else return false;
  return true;
}

int CmdLearn(const Args& args) {
  auto bundle = core::ModelBundle::LoadFromFile(args.Get("bundle", ""));
  if (!bundle.ok()) return Fail(bundle.status(), "load");
  const std::string out = args.Get("out", "updated.magneto");
  const std::string name = args.Get("name", "Gesture Hi");
  const double seconds = args.GetDouble("seconds", 25.0);
  const uint64_t gesture_seed =
      static_cast<uint64_t>(args.GetInt("gesture-seed", 4242));
  const std::string fail_step = args.Get("fail-step", "");

  core::IncrementalOptions options;
  options.train.epochs = 12;
  options.train.learning_rate = 1e-3;
  options.train.distill_weight = 1.0;
  if (!fail_step.empty()) {
    core::UpdateStep step;
    if (!ParseUpdateStep(fail_step, &step)) {
      std::fprintf(stderr,
                   "error: unknown --fail-step '%s' "
                   "(preprocess|train|support|prototypes)\n",
                   fail_step.c_str());
      return 2;
    }
    options.failure_hook = [step, fail_step](core::UpdateStep s) {
      if (s == step) {
        return Status::Internal("injected failure at step '" + fail_step +
                                "'");
      }
      return Status::Ok();
    };
  }

  core::SupportSet support = std::move(bundle.value().support);
  core::EdgeModel model = std::move(bundle).value().ToEdgeModel();
  core::EdgeRuntime runtime(std::move(model), std::move(support), options);

  // Persist the pre-update state first: whatever happens to the update,
  // --out always holds a loadable checkpoint — the committed post-update
  // model, or the unchanged pre-update one after a rollback.
  Status pre = runtime.SaveCheckpoint(out);
  if (!pre.ok()) return Fail(pre, "checkpoint");
  runtime.EnableAutoCheckpoint(out);

  sensors::SyntheticGenerator gen(7);
  sensors::Recording capture =
      gen.Generate(sensors::MakeGestureModel(gesture_seed), seconds);
  std::printf("learning '%s' from a %.0f s synthetic capture...\n",
              name.c_str(), seconds);

  Status recording = runtime.StartRecording();
  if (!recording.ok()) return Fail(recording, "record");
  for (size_t i = 0; i < capture.samples.rows(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = capture.samples.At(i, c);
    }
    auto pushed = runtime.PushFrame(frame);
    if (!pushed.ok()) return Fail(pushed.status(), "capture");
  }
  auto report = runtime.FinishRecordingAndLearn(name);
  if (!report.ok()) {
    std::printf("update rolled back: %s\n",
                report.status().ToString().c_str());
    std::printf("deployed model unchanged; %s still holds the pre-update "
                "checkpoint, the capture is safely retryable\n", out.c_str());
    // An injected failure is the expected outcome of a --fail-step run.
    return fail_step.empty() ? Fail(report.status(), "learn") : 0;
  }
  std::printf("update committed: activity #%lld from %zu windows "
              "(contrastive %.4f, distill %.4f)\n",
              static_cast<long long>(report.value().activity),
              report.value().new_windows,
              report.value().train.final_embedding_loss(),
              report.value().train.final_distill_loss());
  std::printf("wrote %s (%.1f KiB; pre-update state in %s)\n", out.c_str(),
              runtime.ToBundle().SerializedBytes() / 1024.0,
              core::EdgeRuntime::LastKnownGoodPath(out).c_str());
  return 0;
}

int CmdCalibrate(const Args& args) {
  auto bundle = core::ModelBundle::LoadFromFile(args.Get("bundle", ""));
  if (!bundle.ok()) return Fail(bundle.status(), "load");
  const std::string out = args.Get("out", "calibrated.magneto");
  const std::string activity = args.Get("activity", "Walk");
  const double seconds = args.GetDouble("seconds", 25.0);
  const double intensity = args.GetDouble("user-intensity", 0.8);

  core::SupportSet support = std::move(bundle.value().support);
  core::EdgeModel model = std::move(bundle).value().ToEdgeModel();
  auto id = model.registry().IdOf(activity);
  if (!id.ok()) return Fail(id.status(), "activity lookup");

  sensors::ActivityLibrary lib = sensors::DefaultActivityLibrary();
  if (!lib.count(id.value())) {
    std::fprintf(stderr, "error: no canonical generator for '%s'\n",
                 activity.c_str());
    return 1;
  }
  sensors::UserProfile user(99, intensity);
  sensors::SyntheticGenerator gen(9);
  sensors::Recording capture =
      gen.Generate(user.Personalize(lib[id.value()]), seconds);

  std::printf("calibrating '%s' to a user at intensity %.1f...\n",
              activity.c_str(), intensity);
  core::IncrementalOptions options;
  options.train.epochs = 12;
  options.train.learning_rate = 1e-3;
  options.train.distill_weight = 1.0;
  core::IncrementalLearner learner(options);
  auto report = learner.Calibrate(&model, &support, id.value(), {capture});
  if (!report.ok()) {
    std::printf("update rolled back: deployed model unchanged, the capture "
                "is safely retryable\n");
    return Fail(report.status(), "calibrate");
  }
  std::printf("update committed: %zu fresh windows folded in\n",
              report.value().new_windows);

  core::ModelBundle updated;
  updated.pipeline = model.pipeline();
  updated.classifier = model.classifier();
  updated.registry = model.registry();
  updated.support = std::move(support);
  updated.backbone = std::move(model.backbone());
  Status saved = updated.SaveToFile(out);
  if (!saved.ok()) return Fail(saved, "save");
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdCompress(const Args& args) {
  auto bundle = core::ModelBundle::LoadFromFile(args.Get("bundle", ""));
  if (!bundle.ok()) return Fail(bundle.status(), "load");
  const std::string out = args.Get("out", "compressed.magneto");
  const std::string method = args.Get("method", "int8");
  const size_t before = bundle.value().SerializedBytes();

  Result<nn::Sequential> compressed = Status::Unimplemented("");
  if (method == "int8") {
    compressed = compress::QuantizeBackbone(bundle.value().backbone);
  } else if (method == "lowrank") {
    compressed = compress::FactorizeBackbone(bundle.value().backbone,
                                             args.GetDouble("energy", 0.9));
  } else if (method == "student") {
    compress::StudentOptions options;
    options.dims = {static_cast<size_t>(args.GetInt("student-dims", 64))};
    options.epochs = 80;
    compressed = compress::DistillStudent(
        bundle.value().backbone, bundle.value().support.AsDataset(), options);
  } else {
    std::fprintf(stderr, "error: unknown method '%s'\n", method.c_str());
    return 1;
  }
  if (!compressed.ok()) return Fail(compressed.status(), "compress");
  bundle.value().backbone = std::move(compressed).value();

  // Prototypes must be rebuilt through the compressed embedding.
  core::SupportSet support = std::move(bundle.value().support);
  core::EdgeModel model = std::move(bundle).value().ToEdgeModel();
  Status rebuilt = model.RebuildPrototypes(support);
  if (!rebuilt.ok()) return Fail(rebuilt, "rebuild prototypes");

  core::ModelBundle updated;
  updated.pipeline = model.pipeline();
  updated.classifier = model.classifier();
  updated.registry = model.registry();
  updated.support = std::move(support);
  updated.backbone = std::move(model.backbone());
  if (method == "int8") {
    // Full quantized edge path: int8 backbone, int8 prototype scans, and
    // the wire-v3 quantized bundle encoding for the download itself.
    updated.wire_version = core::kBundleWireV3;
    Status quantized = updated.classifier.QuantizePrototypes();
    if (!quantized.ok()) return Fail(quantized, "quantize prototypes");
  }
  Status saved = updated.SaveToFile(out);
  if (!saved.ok()) return Fail(saved, "save");
  std::printf("%s: %.1f KiB -> %.1f KiB (%s, wire v%u)%s\n", out.c_str(),
              before / 1024.0, updated.SerializedBytes() / 1024.0,
              method.c_str(), updated.wire_version,
              method == "int8" ? "  [inference-only: no on-device updates]"
                               : "");
  return 0;
}

int CmdFleet(const Args& args) {
  auto bundle = core::ModelBundle::LoadFromFile(args.Get("bundle", ""));
  if (!bundle.ok()) return Fail(bundle.status(), "load");
  const size_t sessions = static_cast<size_t>(args.GetInt("sessions", 8));
  const double seconds = args.GetDouble("seconds", 6.0);
  const bool promote = args.GetInt("promote", 1) != 0;
  const bool open_loop = args.GetInt("open-loop", 0) != 0;
  const int64_t threads = args.GetInt("threads", 0);
  if (threads > 0) SetParallelThreads(static_cast<size_t>(threads));

  platform::FleetOptions options;
  options.max_batch = static_cast<size_t>(args.GetInt("max-batch", 8));
  if (open_loop) {
    options.serve_threads =
        static_cast<size_t>(args.GetInt("serve-threads", 4));
    options.max_concurrent_batches =
        static_cast<size_t>(args.GetInt("concurrent-batches", 4));
    options.admission_capacity =
        static_cast<size_t>(args.GetInt("queue", 256));
  }

  // Each session is a distinct simulated user: own personalisation, own
  // activity, own driver thread. Only the frozen deployment is shared.
  const sensors::ActivityId cycle[] = {sensors::kStill, sensors::kWalk,
                                       sensors::kRun};
  sensors::ActivityLibrary lib = sensors::DefaultActivityLibrary();

  // The open-loop generator replays pre-featurized windows, so featurize
  // through the bundle's pipeline before it moves into the fleet.
  const size_t arrivals =
      static_cast<size_t>(args.GetInt("windows", 400));
  const double rate = args.GetDouble("rate", 0.0);
  std::vector<std::vector<std::vector<float>>> features(sessions);
  if (open_loop) {
    for (size_t s = 0; s < sessions; ++s) {
      sensors::UserProfile user(100 + s, 0.5);
      sensors::SyntheticGenerator gen(200 + s);
      sensors::Recording rec =
          gen.Generate(user.Personalize(lib[cycle[s % 3]]), seconds);
      auto fv = bundle.value().pipeline.Process(rec);
      if (!fv.ok()) return Fail(fv.status(), "featurize");
      features[s] = std::move(fv).value();
      if (features[s].empty()) {
        return Fail(Status::InvalidArgument("--seconds too short for a "
                                            "single window"),
                    "featurize");
      }
    }
  }

  // SLO health for the open-loop run: rolling p99 / shed-rate / error-budget
  // burn, sampled by a background exporter so the metrics snapshot carries a
  // health timeline. Declared before the fleet so it outlives the workers.
  obs::SloMonitor slo;
  if (open_loop) options.slo_monitor = &slo;

  auto fleet =
      platform::EdgeFleet::Create(std::move(bundle).value(), sessions,
                                  options);
  if (!fleet.ok()) return Fail(fleet.status(), "create fleet");

  double wall = 0.0;
  if (open_loop) {
    std::printf("fleet: %zu sessions, open loop @ %s windows/s, %zu windows, "
                "%zu serve threads, queue %zu, max batch %zu x %zu "
                "concurrent\n",
                sessions, rate > 0 ? std::to_string(rate).c_str() : "max",
                arrivals, options.serve_threads, options.admission_capacity,
                options.max_batch, options.max_concurrent_batches);
    Rng rng(917);
    using Clock = std::chrono::steady_clock;
    slo.StartExporter(0.05);
    const auto start = Clock::now();
    auto next = start;
    for (size_t i = 0; i < arrivals; ++i) {
      if (rate > 0.0) {
        // Poisson arrivals: exponential gaps, spin-waited (sleep granularity
        // is far coarser than the gaps at interesting rates).
        const double gap_s = -std::log(1.0 - rng.Uniform()) / rate;
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap_s));
        while (Clock::now() < next) {
        }
      }
      const size_t s = i % sessions;
      const auto& pool = features[s];
      fleet.value()->SubmitWindow(s, pool[(i / sessions) % pool.size()]);
      if (promote && i == arrivals / 2) {
        Status promoted =
            fleet.value()->PromoteBundle(fleet.value()->ToBundle());
        if (!promoted.ok()) return Fail(promoted, "promote");
      }
    }
    fleet.value()->DrainSubmitted();
    wall = std::chrono::duration<double>(Clock::now() - start).count();
    slo.StopExporter();
  } else {
    std::printf("fleet: %zu sessions x %.0f s @ %zu pool threads, "
                "max batch %zu\n",
                sessions, seconds, ParallelThreads(), options.max_batch);
    std::atomic<int> failures{0};
    std::vector<std::thread> drivers;
    const auto start = std::chrono::steady_clock::now();
    for (size_t s = 0; s < sessions; ++s) {
      drivers.emplace_back([&, s] {
        sensors::UserProfile user(100 + s, 0.5);
        sensors::SyntheticGenerator gen(200 + s);
        sensors::Recording rec =
            gen.Generate(user.Personalize(lib[cycle[s % 3]]), seconds);
        for (size_t i = 0; i < rec.num_samples(); ++i) {
          sensors::Frame frame;
          for (size_t c = 0; c < sensors::kNumChannels; ++c) {
            frame[c] = rec.samples.At(i, c);
          }
          if (!fleet.value()->PushFrame(s, frame).ok()) failures.fetch_add(1);
        }
      });
    }
    if (promote) {
      // Wait for the fleet to warm up, then hot-swap the deployment under
      // full classification load.
      while (fleet.value()->session_stats(0).windows < 1) {
        std::this_thread::yield();
      }
      Status promoted =
          fleet.value()->PromoteBundle(fleet.value()->ToBundle());
      if (!promoted.ok()) return Fail(promoted, "promote");
    }
    for (auto& t : drivers) t.join();
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
    if (failures.load() > 0) {
      std::fprintf(stderr, "error: %d PushFrame failures\n", failures.load());
      return 1;
    }
  }

  std::printf("%8s %8s %8s %9s %8s  %-14s %10s\n", "session", "frames",
              "windows", "submitted", "rejected", "last", "confidence");
  size_t total_windows = 0;
  size_t total_rejected = 0;
  for (size_t s = 0; s < sessions; ++s) {
    platform::FleetSessionStats stats = fleet.value()->session_stats(s);
    total_windows += stats.windows;
    total_rejected += stats.rejected;
    auto last = fleet.value()->last_prediction(s);
    std::printf("%8zu %8zu %8zu %9zu %8zu  %-14s %9.2f\n", s, stats.frames,
                stats.windows, stats.submitted, stats.rejected,
                last ? last->name.c_str() : "-",
                last ? last->prediction.confidence : 0.0);
  }
  const obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
  const auto* batches = snap.FindCounter("fleet.batches");
  const auto* requests = snap.FindCounter("fleet.requests");
  std::printf("%zu windows in %.2f s (%.0f windows/s); %llu requests in "
              "%llu batches (mean batch %.2f); %zu shed; deployment v%llu\n",
              total_windows, wall, total_windows / wall,
              static_cast<unsigned long long>(requests ? requests->value : 0),
              static_cast<unsigned long long>(batches ? batches->value : 0),
              batches && batches->value > 0
                  ? static_cast<double>(requests->value) /
                        static_cast<double>(batches->value)
                  : 0.0,
              total_rejected,
              static_cast<unsigned long long>(
                  fleet.value()->deployment_version()));
  if (open_loop) {
    const obs::HealthReport health = slo.Evaluate();
    std::printf("slo: %s (p99 %.0f us vs %.0f us target, shed rate %.3f, "
                "error-budget burn %.2f)\n",
                obs::HealthStateName(health.state), health.p99_latency_us,
                slo.targets().p99_latency_us, health.shed_rate,
                health.error_budget_burn);
  }
  return 0;
}

int CmdCollect(const Args& args) {
  const std::string out = args.Get("out", "campaign.msns");
  const size_t users = static_cast<size_t>(args.GetInt("users", 8));
  const double seconds = args.GetDouble("seconds", 8.0);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 11));
  auto corpus = SyntheticCorpus(seed, users, seconds);
  Status saved = sensors::SaveRecordings(corpus, out);
  if (!saved.ok()) return Fail(saved, "save campaign");
  size_t samples = 0;
  for (const auto& rec : corpus) samples += rec.recording.num_samples();
  std::printf("wrote %s: %zu recordings, %zu samples (%zu users x 5 "
              "activities x %.0f s)\n",
              out.c_str(), corpus.size(), samples, users, seconds);
  return 0;
}

int CmdCrossval(const Args& args) {
  std::vector<sensors::LabeledRecording> corpus;
  const std::string data = args.Get("data", "");
  if (!data.empty()) {
    auto loaded = sensors::LoadRecordings(data);
    if (!loaded.ok()) return Fail(loaded.status(), "load campaign");
    corpus = std::move(loaded).value();
  } else {
    corpus = SyntheticCorpus(static_cast<uint64_t>(args.GetInt("seed", 11)),
                             static_cast<size_t>(args.GetInt("users", 8)),
                             args.GetDouble("seconds", 8.0));
  }
  core::CloudConfig config;
  config.backbone_dims = {128, 64, 32};
  config.train.epochs = static_cast<size_t>(args.GetInt("epochs", 15));
  const size_t folds = static_cast<size_t>(args.GetInt("folds", 5));
  std::printf("%zu-fold recording-level cross-validation over %zu "
              "recordings...\n",
              folds, corpus.size());
  auto report = core::CrossValidateCloud(
      config, corpus, sensors::ActivityRegistry::BaseActivities(), folds,
      static_cast<uint64_t>(args.GetInt("seed", 11)));
  if (!report.ok()) return Fail(report.status(), "cross-validate");
  for (size_t i = 0; i < report.value().folds.size(); ++i) {
    const core::FoldResult& fold = report.value().folds[i];
    std::printf("  fold %zu: accuracy %.1f%% (train %zu / test %zu "
                "windows)\n",
                i, fold.accuracy * 100.0, fold.train_windows,
                fold.test_windows);
  }
  std::printf("mean accuracy %.1f%% +- %.1f%%, macro-F1 %.3f\n",
              report.value().mean_accuracy * 100.0,
              report.value().stddev_accuracy * 100.0,
              report.value().mean_macro_f1);
  return 0;
}

int CmdExportCsv(const Args& args) {
  auto bundle = core::ModelBundle::LoadFromFile(args.Get("bundle", ""));
  if (!bundle.ok()) return Fail(bundle.status(), "load bundle");
  auto campaign = sensors::LoadRecordings(args.Get("data", ""));
  if (!campaign.ok()) return Fail(campaign.status(), "load campaign");
  auto features = bundle.value().pipeline.ProcessLabeled(campaign.value());
  if (!features.ok()) return Fail(features.status(), "preprocess");
  const std::string out = args.Get("out", "features.csv");
  std::vector<std::string> names;
  if (bundle.value().pipeline.config().features ==
      preprocess::FeatureMode::kStatistical) {
    names = preprocess::FeatureExtractor::FeatureNames();
  }
  Status saved = sensors::WriteFeatureCsv(features.value(), names, out);
  if (!saved.ok()) return Fail(saved, "write csv");
  std::printf("wrote %s: %zu rows x %zu features\n", out.c_str(),
              features.value().size(), features.value().dim());
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: magneto <pretrain|inspect|simulate|learn|calibrate|compress|"
               "fleet|collect|crossval|export-csv> "
               "[flags]\n(see the header of tools/magneto_cli.cc)\n");
}

}  // namespace

namespace {

int Dispatch(const std::string& command, const Args& args, int argc,
             char** argv) {
  if (command == "pretrain") return CmdPretrain(args);
  if (command == "inspect") {
    if (argc < 3) {
      Usage();
      return 2;
    }
    return CmdInspect(argv[2]);
  }
  if (command == "simulate") return CmdSimulate(args);
  if (command == "learn") return CmdLearn(args);
  if (command == "calibrate") return CmdCalibrate(args);
  if (command == "compress") return CmdCompress(args);
  if (command == "fleet") return CmdFleet(args);
  if (command == "collect") return CmdCollect(args);
  if (command == "crossval") return CmdCrossval(args);
  if (command == "export-csv") return CmdExportCsv(args);
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);

  // Telemetry flags work with every subcommand. Scanned over raw argv so a
  // positional argument (e.g. `inspect <bundle>`) cannot misalign them.
  std::string metrics_out;
  std::string trace_out;
  std::string flight_record_out;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_out = argv[i + 1];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
    if (std::strcmp(argv[i], "--flight-record-out") == 0) {
      flight_record_out = argv[i + 1];
    }
  }
  if (!trace_out.empty()) obs::SetTraceEnabled(true);
  if (!flight_record_out.empty()) {
    // Configured before dispatch so mid-run anomalies (shed burst, update
    // rollback, checkpoint fallback) auto-dump; the final dump below then
    // overwrites with the complete end-of-run picture.
    obs::FlightRecorder::Global().SetAutoDumpPath(flight_record_out);
  }

  const int rc = Dispatch(command, args, argc, argv);

  if (!metrics_out.empty()) {
    const std::string json = obs::Registry::Global().TakeSnapshot().ToJson();
    if (!obs::WriteStringToFile(json, metrics_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return rc != 0 ? rc : 1;
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::WriteTrace(trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return rc != 0 ? rc : 1;
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  if (!flight_record_out.empty()) {
    if (!obs::FlightRecorder::Global().Dump(flight_record_out)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flight_record_out.c_str());
      return rc != 0 ? rc : 1;
    }
    std::printf("wrote flight record to %s\n", flight_record_out.c_str());
  }
  return rc;
}
