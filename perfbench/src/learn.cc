// `learn`: the personalisation loop of the paper's Figure 3 on one phone.
// Three new gestures are recorded and learned in the background, then one
// base activity is re-calibrated; each update is committed as soon as it is
// ready. Inference windows keep arriving on a fixed open-loop schedule the
// whole time, so training and serving share the cores and memory system.
// Each runs inline on its own thread (a 1-lane pool).
#include <algorithm>
#include <map>
#include <thread>

#include "common.h"
#include "tracer.h"

namespace perfbench {

using namespace magneto;

namespace {

/// Inference windows per second offered while the updates train.
constexpr double kLearnRatePerS = 250.0;
constexpr size_t kWarmupWindows = 20;
constexpr size_t kGestures = 3;

struct LearnInputs {
  std::vector<sensors::LabeledRecording> corpus;
  WindowPool pool;
  std::vector<sensors::Recording> gestures;  ///< one capture per gesture
  sensors::Recording calibration;            ///< the user's Walk
  /// Held-out windows: base activities by the same users and the gestures,
  /// from generator seeds the captures did not use.
  std::vector<sensors::Recording> held_base;
  std::vector<sensors::ActivityId> held_base_labels;
  std::vector<sensors::Recording> held_gestures;
};

std::string GestureName(size_t g) { return "gesture-" + std::to_string(g + 1); }

LearnInputs MakeInputs(const Scale& scale, uint64_t seed) {
  LearnInputs in;
  in.corpus = PretrainCorpus(scale);
  in.pool = UserWindowPool(scale, seed, 120);
  for (size_t g = 0; g < kGestures; ++g) {
    // The gestures themselves are fixed (like the base activities); the
    // captures and held-out windows of them come from `seed`.
    const uint64_t gesture_seed = 1000 + 17 * g;
    sensors::SyntheticGenerator capture((seed * 1000 + g) ^ 0xCA97);
    in.gestures.push_back(capture.Generate(
        sensors::MakeGestureModel(gesture_seed), scale.capture_seconds));
    sensors::SyntheticGenerator held((seed * 1000 + g) ^ 0x4E1D);
    in.held_gestures.push_back(held.Generate(
        sensors::MakeGestureModel(gesture_seed), scale.capture_seconds));
  }
  Rng seeder(seed ^ 0x1EA7);
  const sensors::UserProfile user(seeder.engine()(), scale.user_intensity);
  const sensors::ActivityLibrary personal =
      user.Personalize(sensors::DefaultActivityLibrary());
  sensors::SyntheticGenerator capture(seeder.engine()());
  in.calibration =
      capture.Generate(personal.at(sensors::kWalk), scale.capture_seconds);
  sensors::SyntheticGenerator held(seeder.engine()());
  for (const auto& [id, model] : personal) {
    in.held_base.push_back(held.Generate(model, scale.capture_seconds));
    in.held_base_labels.push_back(id);
  }
  return in;
}

Status Capture(core::EdgeRuntime* runtime, const sensors::Recording& rec) {
  MAGNETO_RETURN_IF_ERROR(runtime->StartRecording());
  for (size_t start = 0; start < rec.samples.rows(); start += 120) {
    const size_t end = std::min(rec.samples.rows(), start + 120);
    MAGNETO_RETURN_IF_ERROR(
        PushWindow(runtime, rec.samples.RowSlice(start, end)).status());
  }
  return Status::Ok();
}

struct Recall {
  double balanced = 0.0;
  double new_classes = 0.0;
  double old_classes = 0.0;
};

/// Per-class recall on the held-out windows after the last commit.
Recall Score(core::EdgeModel* model, const LearnInputs& in,
             Report* report) {
  std::vector<sensors::LabeledRecording> base, gestures;
  for (size_t i = 0; i < in.held_base.size(); ++i) {
    base.push_back({in.held_base[i], in.held_base_labels[i]});
  }
  for (size_t g = 0; g < in.held_gestures.size(); ++g) {
    auto id = model->registry().IdOf(GestureName(g));
    if (!id.ok()) {
      report->Fail("learn_classes", GestureName(g) + " is not registered");
      return {};
    }
    gestures.push_back({in.held_gestures[g], id.value()});
  }
  auto recall_of = [&](const std::vector<sensors::LabeledRecording>& recs) {
    const sensors::FeatureDataset data =
        Must(model->pipeline().ProcessLabeled(recs), "held-out features");
    const auto pairs = Must(model->Predict(data), "held-out predict");
    std::map<sensors::ActivityId, std::pair<size_t, size_t>> per_class;
    for (const auto& [truth, predicted] : pairs) {
      per_class[truth].first += truth == predicted;
      per_class[truth].second += 1;
    }
    std::vector<double> recalls;
    for (const auto& [id, counts] : per_class) {
      recalls.push_back(static_cast<double>(counts.first) /
                        static_cast<double>(counts.second));
    }
    return recalls;
  };
  const std::vector<double> old_r = recall_of(base);
  const std::vector<double> new_r = recall_of(gestures);
  std::vector<double> all = old_r;
  all.insert(all.end(), new_r.begin(), new_r.end());
  return Recall{Mean(all), Mean(new_r), Mean(old_r)};
}

void RunUntraced(const Args& args, const Scale& scale, double seconds,
                 Report* report) {
  const LearnInputs in = MakeInputs(scale, args.seed);
  SetupSummary setup;
  Device device = SetupDevice(scale, args.inject, in.corpus, in.pool,
                              kWarmupWindows, /*stream_features=*/false,
                              scale.setup_repeats, report, &setup);
  core::EdgeRuntime& runtime = *device.runtime;
  const std::string walk =
      Must(runtime.model().registry().NameOf(sensors::kWalk), "Walk name");

  const size_t n_pool = in.pool.windows.size();
  const double period_ns = 1e9 / kLearnRatePerS;
  const size_t updates = kGestures + 1;
  // Inference latencies while an update trains, and outside any update.
  std::vector<double> busy_latency_us, idle_latency_us, lateness_us, update_s;
  size_t window = 0, next_update = 0, errors = 0;
  bool pending = false;
  uint64_t update_start = 0;
  const size_t cpus = std::thread::hardware_concurrency();
  const bool pin = cpus >= 2 && PinCurrentThread(0, 1);
  const uint64_t start = NowNs();
  for (;;) {
    if (!pending && next_update < updates) {
      const bool calibrate = next_update == kGestures;
      Status status = Capture(
          &runtime, calibrate ? in.calibration : in.gestures[next_update]);
      update_start = NowNs();
      if (status.ok()) {
        // The update thread starts inside the call and inherits this
        // thread's CPU set: give it the other cores, then take the feeder
        // back to its own, so neither is ever queued behind the other.
        if (pin) PinCurrentThread(1, cpus);
        status = calibrate
                     ? runtime.FinishRecordingAndCalibrateAsync(walk)
                     : runtime.FinishRecordingAndLearnAsync(
                           GestureName(next_update));
        if (pin) PinCurrentThread(0, 1);
      }
      if (status.ok()) {
        pending = true;
      } else {
        report->Fail("learn_update", status.ToString());
        runtime.CancelRecording();
        ++errors;
        ++next_update;
      }
    } else if (pending && runtime.UpdateReady()) {
      auto committed = runtime.CommitUpdate();
      update_s.push_back(SecondsSince(update_start));
      if (!committed.ok()) {
        report->Fail("learn_update", committed.status().ToString());
        ++errors;
      }
      pending = false;
      ++next_update;
    }
    // Spin rather than sleep until the next window is due: a sleeping vCPU
    // can take milliseconds to run again, which would read as latency.
    const uint64_t now = NowNs();
    const uint64_t due =
        start + static_cast<uint64_t>(static_cast<double>(window) * period_ns);
    if (now >= due) {
      lateness_us.push_back(static_cast<double>(now - due) * 1e-3);
      auto pred = PushWindow(&runtime, in.pool.windows[window % n_pool]);
      const double latency = static_cast<double>(NowNs() - due) * 1e-3;
      (pending ? busy_latency_us : idle_latency_us).push_back(latency);
      if (!pred.ok() || !pred.value().has_value()) ++errors;
      ++window;
      continue;
    }
    if (!pending && next_update >= updates &&
        SecondsSince(start) >= seconds) {
      break;
    }
  }
  const double elapsed = SecondsSince(start);

  const Recall recall = Score(&runtime.model(), in, report);
  if (runtime.model().classifier().num_classes() != 5 + kGestures) {
    report->Fail("learn_classes",
                 std::to_string(runtime.model().classifier().num_classes()) +
                     " classes after the updates, expected 8");
  }
  if (!core::ModelBundle::FromString(runtime.ToBundle().SerializeToString())
           .ok()) {
    report->Fail("learn_bundle",
                 "the committed deployment does not round-trip");
  }

  const double update_p50 = Median(update_s);
  report->Attempt(window + updates, errors);
  report->Metric("setup_s", setup.median_total_s(), "s");
  // The user-facing operation here is the update: from the learn/calibrate
  // call to the commit. With four per run, p99 reads as the slowest one.
  report->Metric("latency_p50_us", update_p50 * 1e6, "us");
  report->Metric("latency_p99_us", Quantile(update_s, 0.99) * 1e6, "us");
  report->Metric("throughput_per_s", update_p50 > 0 ? 1.0 / update_p50 : 0.0,
                 "1/s");
  report->Metric("accuracy", recall.balanced, "ratio");
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
  report->Metric("bundle_bytes", static_cast<double>(device.bytes.size()), "B");
  report->Detail("learn.update_p50_s", update_p50);
  for (size_t i = 0; i < update_s.size(); ++i) {
    report->Detail("learn.update_" + std::to_string(i + 1) + "_s", update_s[i]);
  }
  report->Detail("learn.new_recall", recall.new_classes);
  report->Detail("learn.old_recall", recall.old_classes);
  report->Detail("learn.offered_windows_per_s", kLearnRatePerS);
  report->Detail("learn.windows", static_cast<double>(window));
  report->Detail("learn.busy_latency_samples",
                 static_cast<double>(busy_latency_us.size()));
  report->Detail("learn.busy_latency_p50_us", Quantile(busy_latency_us, 0.5));
  report->Detail("learn.busy_latency_p99_us", Quantile(busy_latency_us, 0.99));
  report->Detail("learn.idle_latency_p50_us", Quantile(idle_latency_us, 0.5));
  report->Detail("learn.lateness_p99_us", Quantile(lateness_us, 0.99));
  report->Detail("learn.lateness_max_us", Quantile(lateness_us, 1.0));
  report->Detail("learn.elapsed_s", elapsed);
}

/// One update decomposed into the public calls LearnNewActivity makes, each
/// under a span, on a copy of the deployment; the untraced public call runs
/// on another copy and both committed bundles must be byte-identical.
void RunTraced(const Args& args, const Scale& scale, Tracer* tracer,
               Report* report) {
  const LearnInputs in = MakeInputs(scale, args.seed);
  SetupSummary setup;
  Device device = SetupDevice(scale, args.inject, in.corpus, in.pool,
                              kWarmupWindows, /*stream_features=*/false, 1,
                              report, &setup);
  const core::IncrementalOptions options = UpdateOptions(scale);
  const std::string name = GestureName(0);
  const sensors::Recording& capture = in.gestures[0];

  // Untraced: the public runtime path.
  MustOk(Capture(device.runtime.get(), capture), "capture");
  uint64_t t0 = NowNs();
  Must(device.runtime->FinishRecordingAndLearn(name), "LearnNewActivity");
  const double untraced_ms = SecondsSince(t0) * 1e3;
  const std::string untraced_bundle =
      device.runtime->ToBundle().SerializeToString();

  // Traced decomposition on a fresh copy of the same deployment.
  core::ModelBundle bundle =
      Must(core::ModelBundle::FromString(device.bytes), "bundle decode");
  core::SupportSet support = std::move(bundle.support);
  core::EdgeModel model = std::move(bundle).ToEdgeModel();
  const Tracer::NameId n_update = tracer->Name("core.update");
  const Tracer::NameId n_stage = tracer->Name("core.update.stage");
  const Tracer::NameId n_capture = tracer->Name("preprocess.capture");
  const Tracer::NameId n_train = tracer->Name("learn.train");
  const Tracer::NameId n_support = tracer->Name("core.update.support");
  const Tracer::NameId n_protos = tracer->Name("core.update.prototypes");
  const Tracer::NameId n_commit = tracer->Name("core.update.commit");
  size_t staged_bytes = 0, pairs = 0;
  tracer->SetRequest(1);
  {
    Tracer::Scope root(tracer, n_update);
    std::unique_ptr<core::UpdateTransaction> tx;
    sensors::ActivityId id = -1;
    {
      Tracer::Scope span(tracer, n_stage);
      tx = std::make_unique<core::UpdateTransaction>(&model, &support);
      id = Must(tx->registry().Register(name), "register");
    }
    sensors::FeatureDataset fresh;
    {
      Tracer::Scope span(tracer, n_capture);
      fresh = Must(model.pipeline().ProcessLabeled({{capture, id}}),
                   "capture features");
    }
    {
      Tracer::Scope span(tracer, n_train);
      const sensors::FeatureDataset retained = tx->support().AsDataset();
      sensors::FeatureDataset train_data =
          options.rehearse_support ? retained : sensors::FeatureDataset{};
      train_data.Merge(fresh);
      learn::TrainOptions train = options.train;
      train.ewc_weight = 0.0;
      if (args.inject == Check::kLearnBundle) train.seed ^= 1;
      const bool distill = train.distill_weight > 0.0 && !retained.empty();
      const size_t per_epoch = train.pairs_per_epoch > 0
                                   ? train.pairs_per_epoch
                                   : 2 * train_data.size();
      pairs = train.epochs * train.batch_size *
              std::max<size_t>(1, (per_epoch + train.batch_size - 1) /
                                      train.batch_size);
      learn::SiameseTrainer trainer(train);
      Must(trainer.Train(&tx->backbone(), train_data,
                         distill ? &model.backbone() : nullptr,
                         distill ? &retained : nullptr, nullptr),
           "train");
    }
    {
      Tracer::Scope span(tracer, n_support);
      Rng rng(options.seed ^ static_cast<uint64_t>(id));
      MustOk(tx->support().SetClass(id, fresh, &tx->embedder(), &rng),
             "support");
    }
    {
      Tracer::Scope span(tracer, n_protos);
      MustOk(tx->RebuildPrototypes(), "prototypes");
    }
    staged_bytes = tx->StagedBytes();
    Tracer::Scope span(tracer, n_commit);
    tx->Commit();
  }
  tracer->SetRequest(0);

  core::ModelBundle traced;
  traced.pipeline = model.pipeline();
  traced.backbone = model.backbone().Clone();
  traced.classifier = model.classifier();
  traced.registry = model.registry();
  traced.support = support;
  if (traced.SerializeToString() != untraced_bundle) {
    report->Fail("learn_bundle",
                 "the traced update decomposition committed a bundle that "
                 "differs from LearnNewActivity's");
  }
  report->Attempt(2);

  const auto self = tracer->SelfTimesUs();
  auto ms = [&](const std::string& n) { return Median(self.at(n)) * 1e-3; };
  const double train_s = ms("learn.train") * 1e-3;
  report->Metric("preprocess.capture_ms", ms("preprocess.capture"), "ms");
  report->Metric("core.update.stage_ms", ms("core.update.stage"), "ms");
  report->Metric("core.update.support_ms", ms("core.update.support"), "ms");
  report->Metric("core.update.prototypes_ms", ms("core.update.prototypes"),
                 "ms");
  report->Metric("core.update.commit_ms", ms("core.update.commit"), "ms");
  report->Metric("core.update.staged_bytes", static_cast<double>(staged_bytes),
                 "B");
  report->Metric("learn.train_s", train_s, "s");
  report->Metric("learn.pairs_per_s", static_cast<double>(pairs) / train_s,
                 "1/s");
  const double self_sum = ms("core.update") + ms("core.update.stage") +
                          ms("preprocess.capture") + ms("learn.train") +
                          ms("core.update.support") +
                          ms("core.update.prototypes") +
                          ms("core.update.commit");
  // Seven spans cost microseconds against an update of seconds, so the
  // residual is the decomposition's difference from the public call.
  report->Metric("reconcile.learn_residual_pct",
                 100.0 * (untraced_ms - self_sum) / untraced_ms, "%");
  report->Detail("reconcile.learn_untraced_update_ms", untraced_ms);
  report->Detail("reconcile.learn_self_sum_ms", self_sum);
  report->Detail("learn.train_share_of_update", train_s * 1e3 / untraced_ms);
}

}  // namespace

void RunLearn(const Args& args, const Scale& scale, double seconds,
              Tracer* tracer, Report* report) {
  SetParallelThreads(kLearnPoolThreads);
  if (tracer == nullptr) {
    RunUntraced(args, scale, seconds, report);
  } else {
    RunTraced(args, scale, tracer, report);
  }
}

}  // namespace perfbench
