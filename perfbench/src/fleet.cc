// The gateway path, profiled in every traced run: an edge gateway serving
// pre-featurized windows from many users over one int8 deployment of ~100
// classes. One generator thread offers Poisson arrivals at fixed absolute
// rates (open loop) into EdgeFleet::SubmitWindow; latency counts from each
// request's due time. It is not an end-to-end workload: on a shared 4-vCPU
// host its open-loop p99 and ladder-sustained rate still varied by 15-30%
// between runs, too wide to bound a regression.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common.h"
#include "tracer.h"

namespace perfbench {

using namespace magneto;

namespace {

/// Offered rates: the stage split is read at the nominal rate, batching
/// is observed at the busy rate. Fixed, never derived from a measurement.
constexpr double kNominalRate = 4000.0;
constexpr double kBusyRate = 12000.0;
constexpr size_t kRecorderCapacity = 1 << 17;

struct Served {
  size_t submitted = 0;
  size_t shed = 0;
  size_t errors = 0;
  size_t missing = 0;  ///< requests with no flight record
  std::vector<double> latency_us;  ///< due -> publish, published requests
  std::vector<double> lateness_us;
  std::vector<double> batch_sizes;
  /// queue, batch_wait, embed, classify, publish
  std::vector<double> stage_us[5];
};

struct Gateway {
  std::string bytes;  ///< the int8 wire-v3 bundle as delivered
  std::unique_ptr<platform::EdgeFleet> fleet;
};

struct FleetInputs {
  std::vector<sensors::LabeledRecording> corpus;
  std::vector<sensors::LabeledRecording> enroll;  ///< vocabulary captures
  std::vector<sensors::LabeledRecording> probe;   ///< held-out windows
};

FleetInputs MakeInputs(const Scale& scale, uint64_t seed) {
  FleetInputs in;
  in.corpus = PretrainCorpus(scale);
  sensors::LargeVocabularyOptions vocab;
  vocab.num_classes = scale.vocab_classes;
  vocab.overlap = 0.2;
  vocab.seed = 5;  // the class set is fixed; the windows come from `seed`
  // Many short recordings per class rather than a few long ones: windows
  // of one recording are correlated, and independent recordings make the
  // prototypes and the accuracy estimate steadier across seeds.
  sensors::SyntheticGenerator enroll_gen(seed ^ 0xE2011);
  in.enroll = enroll_gen.GenerateVocabularyDataset(
      vocab, scale.vocab_per_class, scale.vocab_seconds);
  sensors::SyntheticGenerator probe_gen(seed ^ 0x9207E);
  in.probe = probe_gen.GenerateVocabularyDataset(
      vocab, scale.vocab_per_class, scale.vocab_seconds);
  const auto base = probe_gen.GenerateDataset(
      sensors::DefaultActivityLibrary(), 1,
      scale.vocab_seconds * static_cast<double>(scale.vocab_classes) / 5.0);
  in.probe.insert(in.probe.end(), base.begin(), base.end());
  return in;
}

/// Grows the pretrained bundle to the vocabulary: each procedural class's
/// windows go through the frozen pipeline into the support set and the
/// prototypes are rebuilt once. Returns the enrolled fp32 bundle bytes.
std::string Enroll(const std::string& fp32, const FleetInputs& in,
                   uint64_t seed) {
  core::ModelBundle bundle =
      Must(core::ModelBundle::FromString(fp32), "bundle decode");
  core::SupportSet support = std::move(bundle.support);
  core::EdgeModel model = std::move(bundle).ToEdgeModel();
  const sensors::FeatureDataset features =
      Must(model.pipeline().ProcessLabeled(in.enroll), "enroll features");
  Rng rng(seed ^ 0xE7);
  for (const auto& [id, count] : features.ClassCounts()) {
    MustOk(model.registry().RegisterWithId(id, "vocab-" + std::to_string(id)),
           "register class");
    MustOk(support.SetClass(id, features.FilterByClass(id), nullptr, &rng),
           "enroll class");
  }
  MustOk(model.RebuildPrototypes(support), "rebuild prototypes");
  core::ModelBundle enrolled;
  enrolled.pipeline = model.pipeline();
  enrolled.backbone = model.backbone().Clone();
  enrolled.classifier = model.classifier();
  enrolled.registry = model.registry();
  enrolled.support = std::move(support);
  return enrolled.SerializeToString();
}

platform::FleetOptions GatewayOptions(obs::FlightRecorder* recorder) {
  platform::FleetOptions options;
  options.max_batch = 8;
  options.max_concurrent_batches = kFleetServeThreads;
  options.serve_threads = kFleetServeThreads;
  options.flight_recorder = recorder;
  return options;
}

Gateway SetupGateway(const Scale& scale, const Args& args,
                     const FleetInputs& in, obs::FlightRecorder* recorder,
                     Report* report, SetupSummary* setup) {
  Gateway gw;
  SetupTimes t;
  const std::string base = PretrainBundle(scale, in.corpus, &t);
  uint64_t t0 = NowNs();
  const std::string enrolled = Enroll(base, in, args.seed);
  t.enroll_ms = SecondsSince(t0) * 1e3;
  t0 = NowNs();
  const std::string int8 = Must(
      platform::CloudServer::EncodeQuantizedBundle(enrolled), "int8 encode");
  t.encode_int8_ms = SecondsSince(t0) * 1e3;
  gw.bytes = Provision(int8, args.inject, report, &t);
  t0 = NowNs();
  core::ModelBundle bundle =
      Must(core::ModelBundle::FromString(gw.bytes), "bundle decode");
  t.decode_ms = SecondsSince(t0) * 1e3;
  // The serve threads inherit the creating thread's CPU set; keep the last
  // CPU for the spinning generator so the scheduler never time-slices a
  // woken serve thread onto the generator's core (which stalls the
  // generator for milliseconds and breaks the arrival schedule).
  const size_t cpus = std::thread::hardware_concurrency();
  if (cpus >= 2) PinCurrentThread(0, cpus - 1);
  t0 = NowNs();
  gw.fleet = Must(platform::EdgeFleet::Create(std::move(bundle),
                                              scale.fleet_pool,
                                              GatewayOptions(recorder)),
                  "fleet create");
  t.construct_ms = SecondsSince(t0) * 1e3;
  if (cpus >= 2) PinCurrentThread(cpus - 1, cpus);
  setup->runs.push_back(t);
  return gw;
}

/// Offers Poisson arrivals at `rate` for `seconds`; request k carries pool
/// window k mod P and goes to session k mod P, so each session only ever
/// classifies one window. Drains, then reads the flight records back.
Served Serve(platform::EdgeFleet* fleet, obs::FlightRecorder* recorder,
             const std::vector<std::vector<float>>& pool, double rate,
             double seconds, uint64_t seed, Tracer* tracer,
             Tracer::NameId submit_name) {
  const size_t n = std::min<size_t>(
      static_cast<size_t>(std::ceil(rate * seconds)),
      kRecorderCapacity * 3 / 4);
  std::vector<uint64_t> due(n);
  Rng rng(seed ^ static_cast<uint64_t>(rate));
  double t = 0.0;
  for (size_t k = 0; k < n; ++k) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    due[k] = static_cast<uint64_t>(t * 1e9);
  }
  recorder->Clear();
  Served out;
  out.lateness_us.reserve(n);
  const uint64_t base_id = obs::NextRequestId();
  const uint64_t start = NowNs() + 1000000;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t when = start + due[k];
    // Spin rather than sleep: a sleeping vCPU can take milliseconds to be
    // scheduled again, which would show up as generator lateness.
    uint64_t now = NowNs();
    while (now < when) now = NowNs();
    out.lateness_us.push_back(static_cast<double>(now - when) * 1e-3);
    const size_t w = k % pool.size();
    Tracer::Scope span(tracer, submit_name);
    out.shed += !fleet->SubmitWindow(w, pool[w]);
  }
  out.submitted = n;
  fleet->DrainSubmitted();
  size_t seen = 0;
  using Stage = obs::RequestStage;
  for (const obs::FlightRecord& rec : recorder->Snapshot()) {
    if (rec.id <= base_id || rec.id > base_id + n) continue;
    ++seen;
    if (rec.outcome == obs::FlightRecord::Outcome::kError) ++out.errors;
    if (rec.outcome != obs::FlightRecord::Outcome::kOk) continue;
    const uint64_t when = start + due[rec.id - base_id - 1];
    const uint64_t publish = rec.stage_ns[static_cast<size_t>(Stage::kPublish)];
    out.latency_us.push_back(
        publish > when ? static_cast<double>(publish - when) * 1e-3 : 0.0);
    out.batch_sizes.push_back(static_cast<double>(rec.batch_size));
    const Stage stages[6] = {Stage::kAdmit, Stage::kDequeue, Stage::kEmbedStart,
                             Stage::kEmbedEnd, Stage::kClassifyEnd,
                             Stage::kPublish};
    for (size_t s = 0; s < 5; ++s) {
      out.stage_us[s].push_back(rec.StageUs(stages[s], stages[s + 1]));
    }
  }
  out.missing = n - seen;
  return out;
}

/// Every session classified only its own pool window, so its last
/// prediction must equal the int8 model's InferFeatures on that window.
/// Returns the share of served windows whose prediction is the true class.
double CheckPredictions(const platform::EdgeFleet& fleet,
                        std::vector<core::Prediction> expected,
                        const std::vector<sensors::ActivityId>& labels,
                        Check inject, Report* report) {
  if (inject == Check::kFleetPredictions) expected[0].activity ^= 1;
  size_t served = 0, correct = 0, mismatches = 0;
  for (size_t s = 0; s < expected.size(); ++s) {
    const auto last = fleet.last_prediction(s);
    if (!last.has_value()) continue;
    ++served;
    mismatches += !SamePrediction(last->prediction, expected[s]);
    correct += last->prediction.activity == labels[s];
  }
  if (mismatches > 0) {
    report->Fail("fleet_predictions",
                 std::to_string(mismatches) + " of " + std::to_string(served) +
                     " sessions' predictions differ from InferFeatures");
  }
  return served == 0 ? 0.0
                     : static_cast<double>(correct) /
                           static_cast<double>(served);
}

struct Probe {
  std::vector<std::vector<float>> features;
  std::vector<sensors::ActivityId> labels;
  std::vector<core::Prediction> expected;
};

/// Featurizes the held-out windows with the deployment's pipeline (input
/// generation, untimed) and computes the reference predictions through a
/// single-owner decode of the same int8 bundle.
Probe MakeProbe(core::EdgeModel* model, const FleetInputs& in, size_t size,
                uint64_t seed) {
  const sensors::FeatureDataset data =
      Must(model->pipeline().ProcessLabeled(in.probe), "probe features");
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed ^ 0x5A5A);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Index(i)]);
  }
  Probe probe;
  for (size_t i = 0; i < size; ++i) {
    const size_t row = order[i % order.size()];
    probe.features.push_back(data.RowVector(row));
    probe.labels.push_back(data.Label(row));
    probe.expected.push_back(
        Must(model->InferFeatures(probe.features.back()), "InferFeatures")
            .prediction);
  }
  return probe;
}

void Warmup(platform::EdgeFleet* fleet, const Probe& probe) {
  for (size_t i = 0; i < probe.features.size(); ++i) {
    while (!fleet->SubmitWindow(i, probe.features[i])) fleet->DrainSubmitted();
  }
  fleet->DrainSubmitted();
}

void RunTraced(const Args& args, const Scale& scale, double seconds,
               Tracer* tracer, Report* report) {
  const FleetInputs in = MakeInputs(scale, args.seed);
  obs::FlightRecorder recorder(kRecorderCapacity);
  SetupSummary setup;
  Gateway gw = SetupGateway(scale, args, in, &recorder, report, &setup);
  core::EdgeModel reference = DecodeModel(gw.bytes);
  const Probe probe = MakeProbe(&reference, in, scale.fleet_pool, args.seed);
  AddSetupLayerMetrics(setup, report);
  // Set-up ran on the default pool like the phone paths; serving uses the
  // gateway's thread budget.
  SetParallelThreads(kFleetPoolThreads);
  Warmup(gw.fleet.get(), probe);

  const Tracer::NameId n_submit = tracer->Name("platform.fleet.submit");
  const Served nominal =
      Serve(gw.fleet.get(), &recorder, probe.features, kNominalRate,
            seconds * 0.5, args.seed, tracer, n_submit);
  const double accuracy = CheckPredictions(*gw.fleet, probe.expected,
                                           probe.labels, args.inject, report);
  report->Detail("platform.fleet.accuracy", accuracy);
  if (nominal.missing > 0) {
    report->Fail("fleet_records",
                 std::to_string(nominal.missing) + " requests left no record");
  }
  const Served busy = Serve(gw.fleet.get(), &recorder, probe.features,
                            kBusyRate, seconds * 0.25, args.seed + 1,
                            nullptr, 0);
  CheckPredictions(*gw.fleet, probe.expected, probe.labels, Check::kNone,
                   report);
  report->Attempt(nominal.submitted + busy.submitted,
                  nominal.shed + nominal.errors + busy.shed + busy.errors);

  const char* stage_names[5] = {"queue", "batch_wait", "embed", "classify",
                                "publish"};
  for (size_t s = 0; s < 5; ++s) {
    const std::string base = std::string("platform.fleet.") + stage_names[s];
    report->Metric(base + "_p50_us", Quantile(nominal.stage_us[s], 0.5), "us");
    report->Metric(base + "_p99_us", Quantile(nominal.stage_us[s], 0.99), "us");
  }
  const double batch_mean = Mean(busy.batch_sizes);
  report->Metric("platform.fleet.batch_size_mean", batch_mean, "count");
  report->Metric("platform.fleet.submit_us",
                 Median(tracer->SelfTimesUs().at("platform.fleet.submit")),
                 "us");
  report->Metric("platform.fleet.shed", static_cast<double>(busy.shed),
                 "count");
  report->Detail("platform.fleet.busy_rate", kBusyRate);
  report->Detail("platform.fleet.nominal_rate", kNominalRate);
  report->Detail("platform.fleet.nominal_latency_p50_us",
                 Quantile(nominal.latency_us, 0.5));
  report->Detail("platform.fleet.nominal_latency_p99_us",
                 Quantile(nominal.latency_us, 0.99));
  report->Detail("platform.fleet.nominal_lateness_p99_us",
                 Quantile(nominal.lateness_us, 0.99));
  report->Detail("platform.fleet.bundle_bytes",
                 static_cast<double>(gw.bytes.size()));
  report->Detail("platform.fleet.nominal_batch_mean",
                 Mean(nominal.batch_sizes));

  // Int8 backbone layer by layer at batch 1 and at the observed mean batch,
  // on the serving thread budget (single-lane pool).
  const nn::Sequential& backbone = reference.backbone();
  const size_t batch_n =
      std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
  const size_t dim = probe.features[0].size();
  const double budget_s = std::max(0.2, seconds * 0.1);
  for (const auto& [tag, rows] :
       {std::pair<std::string, size_t>{"b1", 1}, {"bmean", batch_n}}) {
    const std::vector<LayerWork> work = BackboneWork(backbone, rows);
    std::vector<uint32_t> names;
    for (size_t i = 0; i < work.size(); ++i) {
      names.push_back(tracer->Name("nn.qlayer." + std::to_string(i) + "." +
                                   work[i].kind + "." + tag));
    }
    Matrix input(rows, dim);
    Matrix buffers[2];
    const uint64_t start = NowNs();
    for (size_t rep = 0; rep < 200 || SecondsSince(start) < budget_s; ++rep) {
      for (size_t r = 0; r < rows; ++r) {
        const auto& f =
            probe.features[(rep * rows + r) % probe.features.size()];
        std::copy(f.begin(), f.end(), input.RowPtr(r));
      }
      ForwardByLayer(backbone, input, tracer, names, buffers);
    }
    const auto self = tracer->SelfTimesUs();
    for (size_t i = 0; i < work.size(); ++i) {
      const std::string name =
          "nn.qlayer." + std::to_string(i) + "." + work[i].kind + "." + tag;
      const double us = Median(self.at(name));
      report->Metric(name + "_us", us, "us");
      if (work[i].kind == "qlinear" && tag == "bmean") {
        report->Metric(name + "_gops", work[i].ops / (us * 1e3), "GOP/s");
      }
      report->Detail(name + ".ops_computed", work[i].ops);
      report->Detail(name + ".bytes_computed", work[i].bytes);
    }
  }
  report->Detail("nn.qlayer.bmean_rows", static_cast<double>(batch_n));

  // 100-class int8 prototype scan.
  const Tracer::NameId n_classify = tracer->Name("core.classify_q100");
  nn::ForwardWorkspace ws;
  const Matrix embeddings = backbone.Forward(
      Matrix(probe.features.size(), dim,
             [&] {
               std::vector<float> flat;
               for (const auto& f : probe.features) {
                 flat.insert(flat.end(), f.begin(), f.end());
               }
               return flat;
             }()),
      &ws);
  core::NcmClassifier::Scratch scratch;
  const uint64_t start = NowNs();
  for (size_t rep = 0; rep < 2000 || SecondsSince(start) < budget_s; ++rep) {
    const size_t row = rep % embeddings.rows();
    Tracer::Scope span(tracer, n_classify);
    (void)reference.classifier().Classify(embeddings.RowPtr(row),
                                          embeddings.cols(), &scratch);
  }
  report->Metric("core.classify_q100_us",
                 Median(tracer->SelfTimesUs().at("core.classify_q100")), "us");
  report->Detail("core.classify_q100_classes",
                 static_cast<double>(reference.classifier().num_classes()));
}

}  // namespace

void RunFleet(const Args& args, const Scale& scale, double seconds,
              Tracer* tracer, Report* report) {
  SetParallelThreads(kStreamPoolThreads);
  RunTraced(args, scale, seconds, tracer, report);
}

}  // namespace perfbench
