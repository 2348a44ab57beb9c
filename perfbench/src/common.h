// Shared pieces of the edge-path benchmark: arguments, the result report,
// order statistics, host facts, and the set-up path every workload starts
// with (pretrain -> encode -> provision over the chunked transport ->
// decode). Everything here calls the library through its public headers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "magneto.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds; the same clock `obs::RequestContext` stamps.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Correctness checks that `--inject` can deliberately break, so the smoke
/// test can show each of them failing.
enum class Check {
  kNone,
  kStreamFingerprint,  ///< stream predictions vs an InferWindow replay
  kFleetPredictions,   ///< fleet predictions vs the int8 model's InferFeatures
  kProvisioning,       ///< delivered bytes identical, no user bytes uplinked
  kLearnBundle,        ///< traced update decomposition vs LearnNewActivity
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< smoke-test scale: small model, short phases
  Check inject = Check::kNone;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Problem sizes. The full scale is the paper's backbone and data shapes;
/// the tiny scale only exists so the smoke test finishes in seconds.
struct Scale {
  std::vector<size_t> backbone_dims;
  size_t pretrain_epochs;
  size_t corpus_users;        ///< pretraining corpus: one recording per
  double corpus_seconds;      ///< (user, base activity)
  size_t stream_users;        ///< personalised users in the inference pool
  double pool_seconds;        ///< per (user, activity) segment of the pool
  double user_intensity;      ///< UserProfile intensity of those users
  size_t update_epochs;
  double capture_seconds;     ///< length of each recorded gesture
  size_t vocab_classes;       ///< procedural classes enrolled for `fleet`
  size_t vocab_per_class;
  double vocab_seconds;
  size_t fleet_pool;          ///< distinct featurized windows (= sessions)
  size_t setup_repeats;       ///< set-ups per run; setup_s is their median
};

Scale MakeScale(bool tiny);

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Summarises one statistic taken per segment of a run. Interference from
/// outside the process (other tenants, vCPU preemption) only ever makes a
/// stretch of the run slower, so the summary is the quartile on the quiet
/// side: the lower quartile for times, the upper quartile for rates.
inline double QuietQuartile(std::vector<double> per_segment,
                            bool lower_is_better) {
  return Quantile(std::move(per_segment), lower_is_better ? 0.25 : 0.75);
}

/// Order-dependent 64-bit fingerprint of a prediction stream.
class Fingerprint {
 public:
  void Add(const magneto::core::Prediction& p);
  uint64_t value() const { return h_; }

 private:
  void Mix(uint64_t v);
  uint64_t h_ = 1469598103934665603ull;
};

/// True when two predictions agree bit for bit (class and distance).
bool SamePrediction(const magneto::core::Prediction& a,
                    const magneto::core::Prediction& b);

// -- Result report ------------------------------------------------------------

/// Everything one run produces: the metrics for the last stdout line, the
/// attempted/failed counts, correctness verdicts, and detail facts that go
/// only into the report file.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value);
  void DetailText(const std::string& name, const std::string& value);
  /// Records a failed correctness check; the run then exits non-zero.
  void Fail(const std::string& check, const std::string& message);
  void Attempt(uint64_t n, uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }

  /// The contract line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;
  /// The full report (stamp, metrics, details, failures) as JSON.
  std::string ToJson(const std::string& stamp_json) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> details_;
  std::vector<std::pair<std::string, std::string>> texts_;
  std::vector<std::pair<std::string, std::string>> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Host and run facts stamped on every result.
std::string HostStampJson(const Args& args, size_t pool_threads,
                          size_t serve_threads);
bool IsReleaseBuild();

/// Process high-water resident set, MiB (getrusage; includes the inputs).
double PeakRssMib();

/// Restricts the calling thread to CPUs [first, last); threads it creates
/// afterwards inherit the set. Best effort: returns false if refused.
bool PinCurrentThread(size_t first, size_t last);

// -- Inputs -------------------------------------------------------------------

/// Pretraining corpus: `corpus_users` population users, each recording every
/// base activity once under a random capture context. It plays the paper's
/// open initial dataset, so it is the same for every seed; everything the
/// users themselves produce (streams, captures, probes) comes from the seed.
std::vector<magneto::sensors::LabeledRecording> PretrainCorpus(
    const Scale& scale);

/// A stream of raw windows (window_samples x 22 each) with their labels.
struct WindowPool {
  std::vector<magneto::Matrix> windows;
  std::vector<magneto::sensors::ActivityId> labels;
  size_t bytes() const;
};

/// Personalised users (UserProfile at `scale.user_intensity`) each perform
/// every base activity for `scale.pool_seconds`, in a seed-shuffled order,
/// cut into the pipeline's windows.
WindowPool UserWindowPool(const Scale& scale, uint64_t seed,
                          size_t window_samples);

magneto::core::IncrementalOptions UpdateOptions(const Scale& scale);

// -- Set-up path --------------------------------------------------------------

/// Times of one set-up, split by the layer that did the work.
struct SetupTimes {
  double pretrain_s = 0.0;
  double encode_ms = 0.0;         ///< fp32 wire v2 serialisation
  double enroll_ms = 0.0;         ///< fleet only: vocabulary enrollment
  double encode_int8_ms = 0.0;    ///< fleet only: wire v3 re-encode
  double provision_ms = 0.0;      ///< chunked delivery over the link
  double decode_ms = 0.0;         ///< bundle parse + checksum
  double construct_ms = 0.0;      ///< runtime / fleet construction
  double warmup_ms = 0.0;
  double total_s() const {
    return pretrain_s +
           (encode_ms + enroll_ms + encode_int8_ms + provision_ms +
            decode_ms + construct_ms + warmup_ms) *
               1e-3;
  }
};

/// Cloud step: pretrains the paper backbone on `corpus` and returns the
/// fp32 wire-v2 bundle bytes.
std::string PretrainBundle(
    const Scale& scale,
    const std::vector<magneto::sensors::LabeledRecording>& corpus,
    SetupTimes* times);

/// Delivers `bytes` cloud->edge over a clean simulated link with the chunked
/// transport, checks the copy is byte-identical and that the privacy auditor
/// saw zero user bytes uplinked. Failures go to `report`.
std::string Provision(const std::string& bytes, Check inject, Report* report,
                      SetupTimes* times);

/// Set-up repetitions: median total plus the per-layer medians.
struct SetupSummary {
  std::vector<SetupTimes> runs;
  double median_total_s() const;
  SetupTimes medians() const;
};

/// A provisioned phone: the delivered bundle and the runtime booted from it.
struct Device {
  std::string bytes;
  std::unique_ptr<magneto::core::EdgeRuntime> runtime;
  /// Predictions the warm-up windows (pool windows 0..n-1) produced.
  std::vector<magneto::core::Prediction> warmup;
};

/// The phone set-up path, repeated `repeats` times (each result recorded in
/// `setup`); returns the last device. Stream options (smoothing, drift
/// monitor, journal) are armed before the warm-up when `stream_features`.
Device SetupDevice(
    const Scale& scale, Check inject,
    const std::vector<magneto::sensors::LabeledRecording>& corpus,
    const WindowPool& pool, size_t warmup_windows, bool stream_features,
    size_t repeats, Report* report, SetupSummary* setup);

/// Adds the set-up per-layer metrics (trace mode).
void AddSetupLayerMetrics(const SetupSummary& setup, Report* report);

/// Unwraps a Result or aborts the run with a message (set-up errors are not
/// measurements; they mean the benchmark cannot run).
template <typename T>
T Must(magneto::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(result).value();
}

inline void MustOk(const magneto::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

/// Pushes every row of `window` through the runtime as frames; returns the
/// prediction the last frame produced, if any.
magneto::Result<std::optional<magneto::core::NamedPrediction>> PushWindow(
    magneto::core::EdgeRuntime* runtime, const magneto::Matrix& window);

/// Decodes a bundle into a single-owner model (the support set is dropped).
magneto::core::EdgeModel DecodeModel(const std::string& bytes);

/// Kernel work of one backbone layer at batch `rows`, computed from tensor
/// shapes (not counted by hardware): floating-point or int8 operations and
/// bytes of weights and activations read and written once.
struct LayerWork {
  std::string kind;  ///< linear, qlinear, relu, ...
  size_t in = 0;
  size_t out = 0;
  double ops = 0.0;
  double bytes = 0.0;
};
std::vector<LayerWork> BackboneWork(const magneto::nn::Sequential& net,
                                    size_t rows);

/// Runs every layer of `net` on `input` through `Layer::Forward`, timing
/// each call as a span named `names[i]`. Returns the final activations.
const magneto::Matrix& ForwardByLayer(const magneto::nn::Sequential& net,
                                      const magneto::Matrix& input,
                                      Tracer* tracer,
                                      const std::vector<uint32_t>& names,
                                      magneto::Matrix buffers[2]);

// -- Workloads ----------------------------------------------------------------

class Tracer;

/// Each runs its workload and fills `report`. `tracer` is null for the
/// untraced (end-to-end) run; with a tracer the function runs its traced
/// layer profile instead, for `seconds` of traced load. The gateway path
/// (`RunFleet`) only has a traced profile.
void RunStream(const Args& args, const Scale& scale, double seconds,
               Tracer* tracer, Report* report);
void RunLearn(const Args& args, const Scale& scale, double seconds,
              Tracer* tracer, Report* report);
void RunFleet(const Args& args, const Scale& scale, double seconds,
              Tracer* tracer, Report* report);

/// Pool lanes include the calling thread. Every path stays within the
/// host's 4 CPUs: stream is one caller on a 4-lane pool; learn is the
/// feeder plus the update thread on a 1-lane pool, so each runs its own
/// work inline and neither queues behind the other's parallel regions; the
/// gateway is the generator plus 2 serve threads on a 1-lane pool.
inline constexpr size_t kStreamPoolThreads = 4;
inline constexpr size_t kLearnPoolThreads = 1;
inline constexpr size_t kFleetPoolThreads = 1;
inline constexpr size_t kFleetServeThreads = 2;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
