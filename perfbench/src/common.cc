#include "common.h"

#include <cpuid.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>

#include "tracer.h"

namespace perfbench {

using namespace magneto;

Scale MakeScale(bool tiny) {
  if (tiny) {
    // Same depth as the paper backbone, so the per-layer names match.
    return Scale{/*backbone_dims=*/{32, 32, 16, 16, 16},
                 /*pretrain_epochs=*/3,
                 /*corpus_users=*/2,
                 /*corpus_seconds=*/6.0,
                 /*stream_users=*/1,
                 /*pool_seconds=*/4.0,
                 /*user_intensity=*/0.6,
                 /*update_epochs=*/2,
                 /*capture_seconds=*/6.0,
                 /*vocab_classes=*/10,
                 /*vocab_per_class=*/1,
                 /*vocab_seconds=*/4.0,
                 /*fleet_pool=*/64,
                 /*setup_repeats=*/1};
  }
  return Scale{/*backbone_dims=*/{1024, 512, 128, 64, 128},
               /*pretrain_epochs=*/15,
               /*corpus_users=*/6,
               /*corpus_seconds=*/10.0,
               /*stream_users=*/4,
               /*pool_seconds=*/12.0,
               /*user_intensity=*/0.6,
               /*update_epochs=*/15,
               /*capture_seconds=*/25.0,
               /*vocab_classes=*/95,
               /*vocab_per_class=*/8,
               /*vocab_seconds=*/2.0,
               /*fleet_pool=*/1024,
               /*setup_repeats=*/3};
}

// -- Statistics ---------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Fingerprint::Mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(const core::Prediction& p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p.distance, sizeof(bits));
  Mix(static_cast<uint64_t>(static_cast<int64_t>(p.activity)));
  Mix(bits);
}

bool SamePrediction(const core::Prediction& a, const core::Prediction& b) {
  return a.activity == b.activity &&
         std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0;
}

// -- Report -------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Detail(const std::string& name, double value) {
  details_.push_back({name, value});
}

void Report::DetailText(const std::string& name, const std::string& value) {
  texts_.push_back({name, value});
}

void Report::Fail(const std::string& check, const std::string& message) {
  std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", check.c_str(),
               message.c_str());
  failures_.push_back({check, message});
}

std::string Report::ResultLine() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<uint64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].first) + ": {\"value\": " +
           JsonNumber(metrics_[i].second.first) +
           ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
  }
  return out + "}}";
}

std::string Report::ToJson(const std::string& stamp_json) const {
  std::string out = "{\n  \"stamp\": " + stamp_json + ",\n  \"result\": " +
                    ResultLine() + ",\n  \"details\": {";
  for (size_t i = 0; i < details_.size(); ++i) {
    out += (i > 0 ? ",\n    " : "\n    ") + JsonString(details_[i].first) +
           ": " + JsonNumber(details_[i].second);
  }
  for (size_t i = 0; i < texts_.size(); ++i) {
    out += (i > 0 || !details_.empty() ? ",\n    " : "\n    ") +
           JsonString(texts_[i].first) + ": " + JsonString(texts_[i].second);
  }
  out += "\n  },\n  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(failures_[i].first + ": " +
                                            failures_[i].second);
  }
  return out + "]\n}\n";
}

// -- Host facts ---------------------------------------------------------------

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
}

}  // namespace

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string HostStampJson(const Args& args, size_t pool_threads,
                          size_t serve_threads) {
  __builtin_cpu_init();
  std::string isa;
  if (__builtin_cpu_supports("avx2")) isa += "avx2 ";
  if (__builtin_cpu_supports("avx512f")) isa += "avx512f ";
  if (__builtin_cpu_supports("avx512vnni")) isa += "avx512vnni ";
  if (__builtin_cpu_supports("avxvnni")) isa += "avxvnni ";
  if (!isa.empty()) isa.pop_back();
  std::string out = "{";
  out += "\"cpu_model\": " + JsonString(CpuModel());
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"isa\": " + JsonString(isa);
  out += ", \"compiler\": " + JsonString(std::string("g++ ") + __VERSION__);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"git_sha\": " + JsonString(args.git_sha);
  out += ", \"source_digest\": " + JsonString(args.source_digest);
  out += ", \"pool_threads\": " + std::to_string(pool_threads);
  out += ", \"serve_threads\": " + std::to_string(serve_threads);
  out += ", \"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"run_seconds\": " + JsonNumber(args.seconds);
  out += ", \"trace\": ";
  out += args.trace ? "true" : "false";
  out += ", \"scale\": ";
  out += args.tiny ? "\"tiny\"" : "\"full\"";
  return out + "}";
}

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool PinCurrentThread(size_t first, size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t cpu = first; cpu < last; ++cpu) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// -- Inputs -------------------------------------------------------------------

std::vector<sensors::LabeledRecording> PretrainCorpus(const Scale& scale) {
  const sensors::ActivityLibrary canonical = sensors::DefaultActivityLibrary();
  std::vector<sensors::LabeledRecording> corpus;
  Rng seeder(0xC0FFEEull);
  for (size_t u = 0; u < scale.corpus_users; ++u) {
    sensors::UserProfile profile(seeder.engine()(), 0.3);
    sensors::SyntheticGenerator gen(seeder.engine()());
    Rng ctx_rng(seeder.engine()());
    for (const auto& [id, model] : profile.Personalize(canonical)) {
      const sensors::RecordingContext context =
          sensors::RecordingContext::Sample(&ctx_rng);
      corpus.push_back(
          {gen.Generate(context.Apply(model), scale.corpus_seconds), id});
    }
  }
  return corpus;
}

size_t WindowPool::bytes() const {
  size_t total = 0;
  for (const Matrix& w : windows) total += w.size() * sizeof(float);
  return total;
}

WindowPool UserWindowPool(const Scale& scale, uint64_t seed,
                          size_t window_samples) {
  const sensors::ActivityLibrary canonical = sensors::DefaultActivityLibrary();
  WindowPool pool;
  Rng seeder(seed ^ 0x5EEDull);
  for (size_t u = 0; u < scale.stream_users; ++u) {
    sensors::UserProfile profile(seeder.engine()(), scale.user_intensity);
    sensors::SyntheticGenerator gen(seeder.engine()());
    const sensors::ActivityLibrary personal = profile.Personalize(canonical);
    std::vector<sensors::ActivityId> order;
    for (const auto& entry : personal) order.push_back(entry.first);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[seeder.Index(i)]);
    }
    for (sensors::ActivityId id : order) {
      const sensors::Recording rec =
          gen.Generate(personal.at(id), scale.pool_seconds);
      for (size_t start = 0; start + window_samples <= rec.num_samples();
           start += window_samples) {
        pool.windows.push_back(
            rec.samples.RowSlice(start, start + window_samples));
        pool.labels.push_back(id);
      }
    }
  }
  return pool;
}

core::IncrementalOptions UpdateOptions(const Scale& scale) {
  core::IncrementalOptions options;
  options.train.epochs = scale.update_epochs;
  return options;
}

// -- Set-up path --------------------------------------------------------------

std::string PretrainBundle(const Scale& scale,
                           const std::vector<sensors::LabeledRecording>& corpus,
                           SetupTimes* times) {
  core::CloudConfig config;
  config.backbone_dims = scale.backbone_dims;
  config.train.epochs = scale.pretrain_epochs;
  config.train.batch_size = 64;
  config.train.learning_rate = 1e-3;
  config.train.seed = 7;
  config.support_capacity = 200;
  config.selection = core::SelectionStrategy::kHerding;
  config.seed = 11;
  core::CloudInitializer cloud(config);
  uint64_t t0 = NowNs();
  core::ModelBundle bundle = Must(
      cloud.Initialize(corpus, sensors::ActivityRegistry::BaseActivities()),
      "pretraining");
  times->pretrain_s = SecondsSince(t0);
  t0 = NowNs();
  std::string bytes = bundle.SerializeToString();
  times->encode_ms = SecondsSince(t0) * 1e3;
  return bytes;
}

std::string Provision(const std::string& bytes, Check inject, Report* report,
                      SetupTimes* times) {
  // 4G-class link; the simulated transfer time is not wall time, only the
  // chunking, CRC and reassembly work is measured.
  platform::NetworkLink link(/*rtt_ms=*/40.0, /*bandwidth_mbps=*/20.0);
  platform::TransportOptions options;
  options.chunk_bytes = 64 * 1024;
  platform::BundleTransport transport(&link, options);
  const uint64_t t0 = NowNs();
  std::string delivered =
      Must(transport.Deliver(platform::Direction::kDownlink,
                             platform::PayloadKind::kModelArtifact, bytes),
           "bundle delivery");
  times->provision_ms = SecondsSince(t0) * 1e3;
  if (inject == Check::kProvisioning) {
    // Smoke test: a device that also uplinks a window of raw user data and
    // receives a corrupted copy must fail both halves of the check.
    link.Transfer(platform::Direction::kUplink,
                  platform::PayloadKind::kUserData,
                  120 * sensors::kNumChannels * sizeof(float));
    delivered[delivered.size() / 2] ^= 0x01;
  }
  if (delivered != bytes) {
    report->Fail("provisioning",
                 "delivered bundle differs from the sent bytes");
    delivered = bytes;  // the check has failed; let the run still report
  }
  const platform::PrivacyAuditor auditor(&link);
  if (auditor.UserBytesUplinked() != 0 || !auditor.Verify().ok()) {
    report->Fail("provisioning",
                 std::to_string(auditor.UserBytesUplinked()) +
                     " user bytes went uplink");
  }
  return delivered;
}

double SetupSummary::median_total_s() const {
  std::vector<double> totals;
  for (const SetupTimes& t : runs) totals.push_back(t.total_s());
  return Median(totals);
}

SetupTimes SetupSummary::medians() const {
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : runs) v.push_back(t.*field);
    return Median(v);
  };
  SetupTimes out;
  out.pretrain_s = med(&SetupTimes::pretrain_s);
  out.encode_ms = med(&SetupTimes::encode_ms);
  out.enroll_ms = med(&SetupTimes::enroll_ms);
  out.encode_int8_ms = med(&SetupTimes::encode_int8_ms);
  out.provision_ms = med(&SetupTimes::provision_ms);
  out.decode_ms = med(&SetupTimes::decode_ms);
  out.construct_ms = med(&SetupTimes::construct_ms);
  out.warmup_ms = med(&SetupTimes::warmup_ms);
  return out;
}

Device SetupDevice(const Scale& scale, Check inject,
                   const std::vector<sensors::LabeledRecording>& corpus,
                   const WindowPool& pool, size_t warmup_windows,
                   bool stream_features, size_t repeats, Report* report,
                   SetupSummary* setup) {
  Device device;
  std::string first_bytes;
  for (size_t r = 0; r < repeats; ++r) {
    device = Device{};
    SetupTimes t;
    const std::string fp32 = PretrainBundle(scale, corpus, &t);
    if (r == 0) {
      first_bytes = fp32;
    } else if (fp32 != first_bytes) {
      report->Fail("setup_determinism",
                   "pretraining the same corpus gave different bundles");
    }
    device.bytes = Provision(fp32, inject, report, &t);
    uint64_t t0 = NowNs();
    core::ModelBundle bundle =
        Must(core::ModelBundle::FromString(device.bytes), "bundle decode");
    t.decode_ms = SecondsSince(t0) * 1e3;
    t0 = NowNs();
    core::SupportSet support = std::move(bundle.support);
    device.runtime = std::make_unique<core::EdgeRuntime>(
        std::move(bundle).ToEdgeModel(), std::move(support),
        UpdateOptions(scale));
    if (stream_features) {
      device.runtime->EnableSmoothing(core::PredictionSmoother::Options{});
      device.runtime->EnableDriftMonitoring(core::DriftMonitor::Options{});
      device.runtime->EnableJournal();
    }
    t.construct_ms = SecondsSince(t0) * 1e3;
    t0 = NowNs();
    for (size_t i = 0; i < warmup_windows; ++i) {
      auto pred = PushWindow(device.runtime.get(),
                             pool.windows[i % pool.windows.size()]);
      if (!pred.ok() || !pred.value().has_value()) {
        MustOk(pred.ok() ? magneto::Status::Internal("no prediction")
                         : pred.status(),
               "warm-up window");
      }
      device.warmup.push_back(pred.value()->prediction);
    }
    t.warmup_ms = SecondsSince(t0) * 1e3;
    setup->runs.push_back(t);
  }
  return device;
}

void AddSetupLayerMetrics(const SetupSummary& setup, Report* report) {
  const SetupTimes m = setup.medians();
  report->Metric("learn.pretrain_s", m.pretrain_s, "s");
  report->Metric("compress.encode_int8_ms", m.encode_int8_ms, "ms");
  report->Metric("platform.provision_ms", m.provision_ms, "ms");
  report->Metric("core.bundle_decode_ms", m.decode_ms, "ms");
  report->Detail("setup.encode_fp32_ms", m.encode_ms);
  report->Detail("setup.enroll_ms", m.enroll_ms);
  report->Detail("setup.construct_ms", m.construct_ms);
  report->Detail("setup.warmup_ms", m.warmup_ms);
  report->Detail("setup.total_s", setup.median_total_s());
}

Result<std::optional<core::NamedPrediction>> PushWindow(
    core::EdgeRuntime* runtime, const Matrix& window) {
  std::optional<core::NamedPrediction> last;
  sensors::Frame frame;
  for (size_t r = 0; r < window.rows(); ++r) {
    std::memcpy(frame.data(), window.RowPtr(r),
                sensors::kNumChannels * sizeof(float));
    MAGNETO_ASSIGN_OR_RETURN(last, runtime->PushFrame(frame));
  }
  return last;
}

core::EdgeModel DecodeModel(const std::string& bytes) {
  core::ModelBundle bundle =
      Must(core::ModelBundle::FromString(bytes), "bundle decode");
  return std::move(bundle).ToEdgeModel();
}

std::vector<LayerWork> BackboneWork(const nn::Sequential& net, size_t rows) {
  std::vector<LayerWork> out;
  const double b = static_cast<double>(rows);
  size_t width = net.InputDim();
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const nn::Layer& layer = net.layer(i);
    LayerWork w;
    w.in = width;
    w.out = layer.output_dim(width);
    const double in = static_cast<double>(w.in);
    const double out_dim = static_cast<double>(w.out);
    switch (static_cast<uint8_t>(layer.type())) {
      case static_cast<uint8_t>(nn::LayerType::kLinear):
        w.kind = "linear";
        w.ops = 2.0 * b * in * out_dim + b * out_dim;
        w.bytes = 4.0 * (in * out_dim + out_dim) + 4.0 * b * (in + out_dim);
        break;
      case nn::kQuantizedLinearTag:
        // Quantize the fp32 input rows, int8 GEMM with int32 accumulation,
        // per-channel rescale plus bias.
        w.kind = "qlinear";
        w.ops = 2.0 * b * in * out_dim + 2.0 * b * in + 2.0 * b * out_dim;
        w.bytes =
            in * out_dim + 8.0 * out_dim + 5.0 * b * in + 4.0 * b * out_dim;
        break;
      case static_cast<uint8_t>(nn::LayerType::kRelu):
        w.kind = "relu";
        w.ops = b * in;
        w.bytes = 8.0 * b * in;
        break;
      default:
        w.kind = "other";
        w.ops = b * in;
        w.bytes = 8.0 * b * in;
        break;
    }
    out.push_back(w);
    width = w.out;
  }
  return out;
}

const Matrix& ForwardByLayer(const nn::Sequential& net, const Matrix& input,
                             Tracer* tracer, const std::vector<uint32_t>& names,
                             Matrix buffers[2]) {
  const Matrix* current = &input;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    Matrix* next = &buffers[i % 2];
    {
      Tracer::Scope span(tracer, names[i]);
      net.layer(i).Forward(*current, /*training=*/false, nullptr, next);
    }
    current = next;
  }
  return *current;
}

}  // namespace perfbench
