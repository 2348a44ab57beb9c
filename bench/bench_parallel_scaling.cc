// Thread-scaling sweep over the pooled hot paths: GEMM, preprocessing
// throughput, and one edge retraining epoch of the paper backbone, at
// 1/2/4/8 lanes; plus the cost of handing an empty region to the pool after
// idle gaps of 20 us, 100 us and 1 ms, at 2 and 4 lanes; plus the
// fp32 GEMM kernel instantiations (portable, avx2, avx512f) on the paper
// backbone's training shapes; plus the training step's elementwise loops
// (Adam::Step on the paper backbone, ReLU backward) against scalar copies of
// their pre-vectorisation form; plus the batch-1 stream window: Denoise and
// the 80 features against copies of their column-at-a-time form, the
// completing frame's preprocessing (whole window at once vs the streamed
// featurizer's Finish), the batch-1 backbone forward with row-major weights
// and separate bias and ReLU passes against Sequential::Forward's inference
// path at 1, 2 and 4 lanes (and batches of 2, 4 and 8), and the heap
// allocations of a warmed
// EdgeRuntime window at 1 and 4 lanes. Emits BENCH_parallel.json so the perf trajectory is tracked across
// PRs, and fails (exit 1) if any workload is not bit-identical across
// thread counts, kernel instantiations or the before/after loops — the determinism contract of the shared runtime
// (DESIGN.md, "Parallel runtime") — if a packed instantiation is not at
// least 1.2x the portable kernel, or if a warmed stream window allocates.
//
// Speedups are only meaningful on a machine with that many cores;
// `hardware_threads` is recorded in the JSON so readers can judge.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/gemm_internal.h"

// Process-wide heap telemetry for the zero-allocation serving assertions
// below: every operator new/new[] funnels through one counter. Coarse but
// exact — if a hot path allocates anything at all (a std::vector growth, a
// map node, a Matrix buffer), the per-call delta says so. Matrix's own
// AllocationCount only sees Matrix buffers; the classifier scratch is plain
// std::vector storage, which only this counter can observe.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

uint64_t HeapAllocations() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1)) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace magneto::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// FNV-1a over raw float bytes: bit-exact fingerprint of a result.
uint64_t Fingerprint(const float* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

struct Sample {
  double seconds = 0.0;
  uint64_t fingerprint = 0;
};

/// Best-of-`reps` wall time; the fingerprint must agree across reps.
template <typename Fn>
Sample BestOf(size_t reps, Fn fn) {
  Sample best;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const uint64_t fp = fn();
    const double s = Seconds(t0, Clock::now());
    if (r == 0 || s < best.seconds) best.seconds = s;
    best.fingerprint = fp;
  }
  return best;
}

/// Median wall time of `reps` (odd) calls of `fn`.
template <typename Fn>
double MedianSeconds(size_t reps, Fn fn) {
  std::vector<double> seconds;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    seconds.push_back(Seconds(t0, Clock::now()));
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[reps / 2];
}

struct Workload {
  std::string name;
  double work_units;        // flops for GEMM, windows/examples otherwise
  std::string units_label;  // what work_units/seconds means
  std::vector<size_t> threads;
  std::vector<Sample> samples;  // one per thread count
};

/// Heap traffic of the forward pass, measured via Matrix::AllocationCount.
/// One workspace reused across calls amortizes every buffer to zero steady-
/// state allocations; a fresh workspace per call re-pays all of them — the
/// before/after of the ping-pong buffer refactor.
struct AllocStats {
  double reused_per_forward = 0.0;
  double fresh_per_forward = 0.0;
  double forward_us = 0.0;  ///< mean reused-workspace forward, 64-row batch
  /// NCM serving: heap allocations per Classify with a caller-owned,
  /// warmed scratch (the EdgeFleet contract: must be exactly 0) on the fp32
  /// and the int8 prototype store, with a fresh scratch per call for
  /// contrast.
  double ncm_scratch_per_classify = 0.0;
  double ncm_fresh_per_classify = 0.0;
  double ncm_int8_scratch_per_classify = 0.0;
  /// EdgeRuntime::PushFrame on warmed windows of one activity with
  /// smoothing, drift monitoring and the journal on, per pool lane count:
  /// heap allocations per window (all of its frames), and in the frame that
  /// completes it.
  struct Stream {
    size_t lanes = 1;
    double per_window = 0.0;
    double per_completing_call = 0.0;
  };
  std::vector<Stream> stream;
};

/// A training-step loop timed in its old scalar form ("before", a copy kept
/// in this file) and through the library ("after"), on identical inputs.
struct BeforeAfter {
  double before = 0.0;
  double after = 0.0;
  bool identical = false;
};

/// The small-batch backbone forward at one batch size and pool lane count,
/// microseconds per forward: row-major weights before, weight panels after.
struct ForwardRow {
  size_t rows = 1;
  size_t lanes = 1;
  BeforeAfter us;
};

/// The time from a ParallelFor call to its return for an empty region of
/// four one-index chunks, after the caller idled `gap_us` (spinning, as a
/// stream's caller stays busy between windows).
struct HandoffRow {
  size_t lanes = 1;
  int gap_us = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// One GEMM kernel instantiation timed on the training shapes.
struct IsaRow {
  const char* isa;
  Sample sample;  ///< seconds per training step's GEMMs
  double speedup_vs_portable = 1.0;
};

void WriteBeforeAfter(obs::JsonWriter* json, const char* key,
                      const BeforeAfter& row) {
  json->Key(key)
      .BeginObject()
      .Field("before", row.before)
      .Field("after", row.after)
      .Field("speedup", row.before / row.after)
      .Field("bit_identical", row.identical)
      .EndObject();
}

/// `lanes_<n>` keys for a per-lane-count object.
std::string LanesKey(size_t lanes) { return "lanes_" + std::to_string(lanes); }

void Report(const std::vector<Workload>& workloads, bool deterministic,
            const AllocStats& allocs, const std::vector<IsaRow>& isa_rows,
            const BeforeAfter& adam, const BeforeAfter& relu,
            const BeforeAfter& denoise, const BeforeAfter& features,
            const BeforeAfter& completing,
            const std::vector<ForwardRow>& forward,
            const std::vector<HandoffRow>& handoff) {
  obs::JsonWriter json = BenchJson("parallel_scaling");
  WriteHostStamp(&json);
  json.Field("hardware_threads", std::thread::hardware_concurrency())
      .Field("deterministic_across_thread_counts", deterministic)
      .Key("workspace_allocations")
      .BeginObject()
      .Field("allocs_per_forward_reused_ws", allocs.reused_per_forward)
      .Field("allocs_per_forward_fresh_ws", allocs.fresh_per_forward)
      .Field("forward_us_reused_ws", allocs.forward_us)
      .Field("ncm_allocs_per_classify_scratch", allocs.ncm_scratch_per_classify)
      .Field("ncm_allocs_per_classify_fresh", allocs.ncm_fresh_per_classify)
      .Field("ncm_allocs_per_classify_int8_scratch",
             allocs.ncm_int8_scratch_per_classify)
      .Key("stream_window_heap_allocations")
      .BeginObject();
  for (const AllocStats::Stream& row : allocs.stream) {
    json.Field(LanesKey(row.lanes), row.per_window);
  }
  json.EndObject().Key("stream_completing_call_heap_allocations").BeginObject();
  for (const AllocStats::Stream& row : allocs.stream) {
    json.Field(LanesKey(row.lanes), row.per_completing_call);
  }
  json.EndObject()
      .EndObject()
      .Key("gemm_training_shapes")
      .BeginObject()
      .Field("shapes", "batch 64 and 32 through 80-1024-512-128-64-128, "
                       "forward + both backward GEMMs, 1 lane")
      .Field("dispatched",
             static_cast<uint64_t>(gemm_internal::DispatchedIsa()))
      .Key("runs")
      .BeginArray();
  for (const IsaRow& row : isa_rows) {
    json.BeginObject()
        .Field("isa", row.isa)
        .Field("ms_per_step", row.sample.seconds * 1e3)
        .Field("speedup_vs_portable", row.speedup_vs_portable)
        .EndObject();
  }
  json.EndArray()
      .EndObject()
      .Key("training_elementwise")
      .BeginObject()
      .Field("shapes", "Adam::Step over the paper backbone's 689,984 "
                       "parameters; ReLU backward on a 64 x 1024 batch with "
                       "half the inputs negative; 1 lane");
  WriteBeforeAfter(&json, "adam_step_ms", adam);
  WriteBeforeAfter(&json, "relu_backward_ns_per_elem", relu);
  json.EndObject()
      .Key("stream_window")
      .BeginObject()
      .Field("shapes", "one 120 x 22 window: moving average of 5, then the "
                       "80 statistical features; median per call over "
                       "synthetic windows of every base activity; 1 lane. "
                       "completing_frame_preprocess_us: the window's whole "
                       "denoise + features (before) vs WindowFeaturizer::"
                       "Finish after 120 pushed rows (after), timed per "
                       "window");
  WriteBeforeAfter(&json, "denoise_us", denoise);
  WriteBeforeAfter(&json, "features_us", features);
  WriteBeforeAfter(&json, "completing_frame_preprocess_us", completing);
  json.EndObject()
      .Key("region_handoff_us")
      .BeginObject()
      .Field("shapes", "an empty region of 4 one-index chunks, from the "
                       "ParallelFor call to its return, after the caller "
                       "spun idle for gap_us; p50 and p99 of 3,000 regions "
                       "(1,000 at the 1 ms gap), keyed lanes_<n>_gap_<us>");
  for (const HandoffRow& row : handoff) {
    const std::string key =
        LanesKey(row.lanes) + "_gap_" + std::to_string(row.gap_us);
    json.Key(key)
        .BeginObject()
        .Field("p50", row.p50_us)
        .Field("p99", row.p99_us)
        .EndObject();
  }
  json.EndObject()
      .Key("batch1_forward_us")
      .BeginObject()
      .Field("shapes", "the paper backbone 80-1024-512-128-64-128 on one "
                       "1 x 80 row, bias and ReLU included, through the "
                       "dispatched column-block kernel across the pool; "
                       "before: row-major weights read in place, then the "
                       "bias and ReLU as passes of their own; after: "
                       "Sequential::Forward's inference path (weights in "
                       "128-column panels, bias and ReLU in the kernel's "
                       "store); median of 31 blocks of 100 back-to-back "
                       "forwards");
  for (const ForwardRow& row : forward) {
    if (row.rows == 1) {
      WriteBeforeAfter(&json, LanesKey(row.lanes).c_str(), row.us);
    }
  }
  json.EndObject()
      .Key("small_batch_forward_us")
      .BeginObject()
      .Field("shapes", "as batch1_forward_us on m x 80 rows (the micro-"
                       "batches EdgeFleet's serve threads stack), keyed "
                       "rows_<m>_lanes_<n>");
  for (const ForwardRow& row : forward) {
    if (row.rows > 1) {
      const std::string key =
          "rows_" + std::to_string(row.rows) + "_" + LanesKey(row.lanes);
      WriteBeforeAfter(&json, key.c_str(), row.us);
    }
  }
  json.EndObject()
      .Key("workloads")
      .BeginArray();
  for (const Workload& wl : workloads) {
    const double t1 = wl.samples.front().seconds;
    json.BeginObject()
        .Field("name", wl.name)
        .Field("units", wl.units_label)
        .Key("runs")
        .BeginArray();
    for (size_t i = 0; i < wl.threads.size(); ++i) {
      const Sample& s = wl.samples[i];
      json.BeginObject()
          .Field("threads", static_cast<uint64_t>(wl.threads[i]))
          .Field("seconds", s.seconds)
          .Field("throughput", wl.work_units / s.seconds / 1e6)
          .Field("speedup_vs_1t", t1 / s.seconds)
          .EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();
  if (!json.WriteToFile("BENCH_parallel.json")) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    std::exit(1);
  }
  // The run's own telemetry rides along: counters/histograms filled by the
  // instrumented runtime while the sweep executed.
  WriteMetricsSnapshot("BENCH_parallel.metrics.json");
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Adam::Step's loop before vectorisation: one element at a time through
/// possibly-aliased pointers, std::sqrt with its errno path (this file is
/// built without -fno-math-errno). Same arithmetic, so the same bits.
void ScalarAdamStep(const nn::Adam::Options& o, int64_t t,
                    const std::vector<Matrix*>& params,
                    const std::vector<Matrix*>& grads, std::vector<Matrix>* m,
                    std::vector<Matrix>* v) {
  const double lr = o.learning_rate, b1 = o.beta1, b2 = o.beta2;
  const double eps = o.epsilon;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
  for (size_t i = 0; i < params.size(); ++i) {
    float* pd = params[i]->data();
    const float* gd = grads[i]->data();
    float* md = (*m)[i].data();
    float* vd = (*v)[i].data();
    for (size_t j = 0; j < params[i]->size(); ++j) {
      md[j] = static_cast<float>(b1 * md[j] + (1.0 - b1) * gd[j]);
      vd[j] = static_cast<float>(
          b2 * vd[j] + (1.0 - b2) * static_cast<double>(gd[j]) * gd[j]);
      const double mhat = md[j] / bc1;
      const double vhat = vd[j] / bc2;
      pd[j] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
    }
  }
}

/// Adam::Step on the paper backbone, 1 lane: median of timed steps, scalar
/// copy vs library, then both parameter sets compared bit for bit.
BeforeAfter MeasureAdam() {
  SetParallelThreads(1);
  constexpr int kSteps = 30;
  Rng rng(17);
  nn::Sequential before_net = nn::BuildPaperBackbone(&rng);
  nn::Sequential after_net = before_net.Clone();
  std::vector<Matrix*> before_params = before_net.Params();
  std::vector<Matrix*> before_grads = before_net.Grads();
  std::vector<Matrix*> after_params = after_net.Params();
  std::vector<Matrix*> after_grads = after_net.Grads();
  for (size_t i = 0; i < before_grads.size(); ++i) {
    for (size_t j = 0; j < before_grads[i]->size(); ++j) {
      const float g = static_cast<float>(rng.Normal(0.0, 1e-2));
      before_grads[i]->data()[j] = g;
      after_grads[i]->data()[j] = g;
    }
  }
  std::vector<Matrix> m, v;
  for (const Matrix* p : before_params) {
    m.emplace_back(p->rows(), p->cols());
    v.emplace_back(p->rows(), p->cols());
  }
  nn::Adam::Options options;
  nn::Adam adam(after_params, after_grads, options);
  std::vector<double> before_ms, after_ms;
  for (int t = 1; t <= kSteps; ++t) {
    auto t0 = Clock::now();
    ScalarAdamStep(options, t, before_params, before_grads, &m, &v);
    before_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    adam.Step();
    after_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
  }
  BeforeAfter result{Median(before_ms), Median(after_ms), true};
  for (size_t i = 0; i < before_params.size(); ++i) {
    result.identical &=
        Fingerprint(before_params[i]->data(), before_params[i]->size()) ==
        Fingerprint(after_params[i]->data(), after_params[i]->size());
  }
  return result;
}

/// ReLU backward, branchy scalar copy vs Relu::Backward, on the first hidden
/// layer's 64 x 1024 batch; ns per element, best of 50 passes.
BeforeAfter MeasureReluBackward() {
  Rng rng(19);
  Matrix input(64, 1024), grad(64, 1024);
  for (size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
    grad.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  const size_t n = input.size();
  Matrix before(64, 1024), after;
  nn::Relu relu;
  const Sample old_loop = BestOf(50, [&] {
    const float* in = input.data();
    const float* g = grad.data();
    float* gi = before.data();
    for (size_t i = 0; i < n; ++i) gi[i] = in[i] <= 0.0f ? 0.0f : g[i];
    return uint64_t{0};
  });
  const Sample library = BestOf(50, [&] {
    relu.Backward(grad, input, input, /*state=*/nullptr, &after);
    return uint64_t{0};
  });
  return {old_loop.seconds / n * 1e9, library.seconds / n * 1e9,
          Fingerprint(before.data(), n) == Fingerprint(after.data(), n)};
}

/// Denoise's moving average before the row sweep: one column at a time
/// through a strided sliding sum, into a fresh matrix. Same arithmetic per
/// channel, so the same bits.
Matrix ColumnWiseMovingAverage(const Matrix& in, size_t window) {
  Matrix out(in.rows(), in.cols());
  const size_t n = in.rows();
  const size_t half = window / 2;
  for (size_t col = 0; col < in.cols(); ++col) {
    double sum = 0.0;
    size_t lo = 0, hi = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t want_lo = i >= half ? i - half : 0;
      const size_t want_hi = std::min(n, i + half + 1);
      while (hi < want_hi) sum += in.At(hi++, col);
      while (lo < want_lo) sum -= in.At(lo++, col);
      out.At(i, col) = static_cast<float>(sum / static_cast<double>(hi - lo));
    }
  }
  return out;
}

/// FeatureExtractor::Extract before the row sweep: every statistic copies
/// its column out and runs the math_utils definition on it, and the IQR
/// sorts two copies.
std::vector<float> ColumnWiseFeatures(const Matrix& window) {
  using sensors::Channel;
  auto column = [&](Channel ch, std::vector<float>* out) {
    out->resize(window.rows());
    for (size_t i = 0; i < window.rows(); ++i) {
      (*out)[i] = window.At(i, static_cast<size_t>(ch));
    }
  };
  auto column_std = [&](Channel ch, std::vector<float>* buf) {
    column(ch, buf);
    return stats::StdDev(buf->data(), buf->size());
  };
  auto column_mean = [&](Channel ch, std::vector<float>* buf) {
    column(ch, buf);
    return stats::Mean(buf->data(), buf->size());
  };
  std::vector<float> out, buf;
  for (Channel c : {Channel::kAccX, Channel::kAccY, Channel::kAccZ,
                    Channel::kGyroX, Channel::kGyroY, Channel::kGyroZ,
                    Channel::kLinAccX, Channel::kLinAccY, Channel::kLinAccZ}) {
    column(c, &buf);
    const float* x = buf.data();
    const size_t n = buf.size();
    out.push_back(static_cast<float>(stats::Mean(x, n)));
    out.push_back(static_cast<float>(stats::StdDev(x, n)));
    out.push_back(static_cast<float>(stats::Min(x, n)));
    out.push_back(static_cast<float>(stats::Max(x, n)));
    out.push_back(static_cast<float>(stats::ZeroCrossingRate(x, n)));
  }
  const Channel groups[3][3] = {
      {Channel::kAccX, Channel::kAccY, Channel::kAccZ},
      {Channel::kGyroX, Channel::kGyroY, Channel::kGyroZ},
      {Channel::kLinAccX, Channel::kLinAccY, Channel::kLinAccZ}};
  const size_t lag = std::max<size_t>(1, window.rows() / 10);
  for (const auto& g : groups) {
    buf.resize(window.rows());
    for (size_t i = 0; i < window.rows(); ++i) {
      const double a = window.At(i, static_cast<size_t>(g[0]));
      const double b = window.At(i, static_cast<size_t>(g[1]));
      const double c = window.At(i, static_cast<size_t>(g[2]));
      buf[i] = static_cast<float>(std::sqrt(a * a + b * b + c * c));
    }
    const float* x = buf.data();
    const size_t n = buf.size();
    out.push_back(static_cast<float>(stats::Mean(x, n)));
    out.push_back(static_cast<float>(stats::StdDev(x, n)));
    out.push_back(static_cast<float>(stats::Skewness(x, n)));
    out.push_back(static_cast<float>(stats::Kurtosis(x, n)));
    out.push_back(static_cast<float>(stats::Energy(x, n)));
    out.push_back(static_cast<float>(stats::MeanAbsDiff(x, n)));
    out.push_back(static_cast<float>(stats::Autocorrelation(x, n, lag)));
    out.push_back(static_cast<float>(stats::Quantile(buf, 0.75) -
                                     stats::Quantile(buf, 0.25)));
  }
  std::vector<float> ax, ay, az;
  column(Channel::kAccX, &ax);
  column(Channel::kAccY, &ay);
  column(Channel::kAccZ, &az);
  const size_t n = ax.size();
  out.push_back(
      static_cast<float>(stats::PearsonCorrelation(ax.data(), ay.data(), n)));
  out.push_back(
      static_cast<float>(stats::PearsonCorrelation(ax.data(), az.data(), n)));
  out.push_back(
      static_cast<float>(stats::PearsonCorrelation(ay.data(), az.data(), n)));
  out.push_back(static_cast<float>(column_mean(Channel::kGravityZ, &buf)));
  out.push_back(static_cast<float>((column_std(Channel::kRotX, &buf) +
                                    column_std(Channel::kRotY, &buf) +
                                    column_std(Channel::kRotZ, &buf)) /
                                   3.0));
  out.push_back(static_cast<float>((column_std(Channel::kMagX, &buf) +
                                    column_std(Channel::kMagY, &buf) +
                                    column_std(Channel::kMagZ, &buf)) /
                                   3.0));
  out.push_back(static_cast<float>(column_mean(Channel::kPressure, &buf)));
  out.push_back(static_cast<float>(column_mean(Channel::kLight, &buf)));
  out.push_back(static_cast<float>(column_mean(Channel::kProximity, &buf)));
  out.push_back(static_cast<float>(column_mean(Channel::kSpeed, &buf)));
  out.push_back(static_cast<float>(column_std(Channel::kSpeed, &buf)));
  return out;
}

/// Median microseconds per call of `fn` over `windows`: 31 timed rounds,
/// each one call per window.
template <typename Fn>
double MedianUsPerCall(const std::vector<Matrix>& windows, Fn fn) {
  std::vector<double> us;
  for (int round = 0; round < 31; ++round) {
    const auto t0 = Clock::now();
    for (const Matrix& w : windows) fn(w);
    us.push_back(Seconds(t0, Clock::now()) * 1e6 /
                 static_cast<double>(windows.size()));
  }
  return Median(us);
}

/// The stream window's two row sweeps against their column-at-a-time form
/// on 120 x 22 windows of every base activity: Denoise with the pipeline's
/// default moving average into a reused matrix, and the 80 features into a
/// reused buffer. Then the preprocessing left to the frame that completes a
/// window: all of it when the whole window is denoised and featurised at
/// once (before), only `WindowFeaturizer::Finish` once the first 120 rows
/// went through `Push` as they arrived (after). Outputs are compared bit for
/// bit on every window.
void MeasureStreamWindow(BeforeAfter* denoise, BeforeAfter* features,
                         BeforeAfter* completing) {
  SetParallelThreads(1);
  sensors::SyntheticGenerator gen(31);
  std::vector<Matrix> raw, denoised;
  for (const auto& [id, model] : sensors::DefaultActivityLibrary()) {
    const sensors::Recording rec = gen.Generate(model, 10.0);
    for (size_t start = 0; start + 120 <= rec.num_samples(); start += 120) {
      raw.push_back(rec.samples.RowSlice(start, start + 120));
    }
  }
  const preprocess::DenoiseConfig config;
  Matrix out;
  denoise->identical = true;
  for (const Matrix& w : raw) {
    const Matrix old = ColumnWiseMovingAverage(w, config.window);
    CheckOk(preprocess::Denoise(w, config, &out), "denoise");
    denoise->identical &= Fingerprint(old.data(), old.size()) ==
                          Fingerprint(out.data(), out.size());
    denoised.push_back(out);
  }
  denoise->before = MedianUsPerCall(raw, [&](const Matrix& w) {
    return ColumnWiseMovingAverage(w, config.window);
  });
  denoise->after = MedianUsPerCall(raw, [&](const Matrix& w) {
    CheckOk(preprocess::Denoise(w, config, &out), "denoise");
  });

  const preprocess::FeatureExtractor extractor;
  preprocess::FeatureExtractor::Scratch scratch;
  std::vector<float> row(preprocess::kNumFeatures);
  features->identical = true;
  for (const Matrix& w : denoised) {
    const std::vector<float> old = ColumnWiseFeatures(w);
    CheckOk(extractor.Extract(w, &scratch, row.data()), "features");
    features->identical &= old.size() == row.size() &&
                           Fingerprint(old.data(), old.size()) ==
                               Fingerprint(row.data(), row.size());
  }
  features->before = MedianUsPerCall(
      denoised, [&](const Matrix& w) { return ColumnWiseFeatures(w); });
  features->after = MedianUsPerCall(denoised, [&](const Matrix& w) {
    CheckOk(extractor.Extract(w, &scratch, row.data()), "features");
  });

  // Per window: the completing frame's share, timed alone; the featurizer's
  // pushes run untimed just before it, as the window's frames would.
  preprocess::WindowFeaturizer featurizer;
  std::vector<float> streamed(preprocess::kNumFeatures);
  auto push_all = [&](const Matrix& w) {
    featurizer.Begin(config, w.rows(), /*statistical=*/true);
    for (size_t r = 0; r < w.rows(); ++r) featurizer.Push(w.data());
  };
  completing->identical = true;
  for (const Matrix& w : raw) {
    CheckOk(preprocess::Denoise(w, config, &out), "denoise");
    CheckOk(extractor.Extract(out, &scratch, row.data()), "features");
    push_all(w);
    CheckOk(featurizer.Finish(w.data(), streamed.data()), "finish");
    completing->identical &= Fingerprint(row.data(), row.size()) ==
                             Fingerprint(streamed.data(), streamed.size());
  }
  std::vector<double> before_us, after_us;
  for (int round = 0; round < 31; ++round) {
    double before = 0.0, after = 0.0;
    for (const Matrix& w : raw) {
      auto t0 = Clock::now();
      CheckOk(preprocess::Denoise(w, config, &out), "denoise");
      CheckOk(extractor.Extract(out, &scratch, row.data()), "features");
      before += Seconds(t0, Clock::now());
      push_all(w);
      t0 = Clock::now();
      CheckOk(featurizer.Finish(w.data(), streamed.data()), "finish");
      after += Seconds(t0, Clock::now());
    }
    before_us.push_back(before * 1e6 / static_cast<double>(raw.size()));
    after_us.push_back(after * 1e6 / static_cast<double>(raw.size()));
  }
  completing->before = Median(before_us);
  completing->after = Median(after_us);
}

/// One forward of `net` on `x` as it ran before weight panels and the
/// fused store: each Linear runs MatMulInto on its row-major copy in
/// `row_major` (in layer order) and then adds its bias in a pass of its
/// own, and each ReLU runs its own Forward. Returns the output buffer.
const Matrix& ForwardRowMajor(const nn::Sequential& net, const Matrix& x,
                              const std::vector<Matrix>& row_major,
                              Matrix buffers[2]) {
  const Matrix* in = &x;
  size_t linear = 0;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    Matrix* out = &buffers[i % 2];
    const nn::Layer& layer = net.layer(i);
    if (const auto* fc = dynamic_cast<const nn::Linear*>(&layer)) {
      MatMulInto(*in, row_major[linear++], out);
      const float* bias = fc->bias().data();
      for (size_t r = 0; r < out->rows(); ++r) {
        float* row = out->RowPtr(r);
        for (size_t c = 0; c < out->cols(); ++c) row[c] += bias[c];
      }
    } else {
      layer.Forward(*in, /*training=*/false, /*state=*/nullptr, out);
    }
    in = out;
  }
  return *in;
}

/// The paper-backbone forward through the dispatched small-batch kernel
/// with row-major weights read in place and separate bias and ReLU passes
/// (before) and through Sequential::Forward's inference path, with the
/// weights in 128-column panels and the bias and ReLU in the kernel's store
/// (after): batches of 1, 2, 4 and 8 rows (the stream, and a fleet serve
/// thread's micro-batches) at 1, 2 and 4 lanes. The two sides alternate in
/// blocks of back-to-back forwards, as windows of a stream arrive, so each
/// lane's weight slice stays in its core's cache across the block; the
/// outputs are compared bit for bit.
std::vector<ForwardRow> MeasureSmallBatchForward() {
  Rng rng(37);
  const nn::Sequential net = nn::BuildPaperBackbone(&rng);
  std::vector<Matrix> row_major;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    if (const auto* fc = dynamic_cast<const nn::Linear*>(&net.layer(i))) {
      row_major.push_back(fc->WeightRowMajor());
    }
  }
  Matrix inputs(8, preprocess::kNumFeatures);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  constexpr int kRounds = 31, kBlock = 100;
  Matrix before_buffers[2];
  nn::ForwardWorkspace after_ws;
  std::vector<ForwardRow> rows;
  for (size_t batch : {1, 2, 4, 8}) {
    for (size_t lanes : {1, 2, 4}) {
      SetParallelThreads(lanes);
      Matrix x(batch, inputs.cols());
      std::copy(inputs.data(), inputs.data() + x.size(), x.data());
      std::vector<double> before_us, after_us;
      for (int round = 0; round < kRounds; ++round) {
        auto t0 = Clock::now();
        for (int i = 0; i < kBlock; ++i) {
          ForwardRowMajor(net, x, row_major, before_buffers);
        }
        before_us.push_back(Seconds(t0, Clock::now()) * 1e6 / kBlock);
        t0 = Clock::now();
        for (int i = 0; i < kBlock; ++i) net.Forward(x, &after_ws);
        after_us.push_back(Seconds(t0, Clock::now()) * 1e6 / kBlock);
      }
      const Matrix& want = ForwardRowMajor(net, x, row_major, before_buffers);
      const Matrix& got = net.Forward(x, &after_ws);
      rows.push_back({batch, lanes,
                      {Median(before_us), Median(after_us),
                       Fingerprint(want.data(), want.size()) ==
                           Fingerprint(got.data(), got.size())}});
    }
  }
  return rows;
}

/// Region hand-off cost (HandoffRow) at 2 and 4 lanes after idle gaps of
/// 20 us and 100 us (the workers still spin, as between the layers and the
/// windows of a stream) and 1 ms (past the spin budget: they sleep, and the
/// region has to wake them).
std::vector<HandoffRow> MeasureRegionHandoff() {
  std::vector<HandoffRow> rows;
  const auto body = [](size_t, size_t) {};
  for (size_t lanes : {2, 4}) {
    SetParallelThreads(lanes);
    for (int gap_us : {20, 100, 1000}) {
      const int regions = gap_us >= 1000 ? 1000 : 3000;
      constexpr int kWarmup = 50;
      std::vector<double> us;
      us.reserve(regions);
      for (int i = 0; i < kWarmup + regions; ++i) {
        const auto until = Clock::now() + std::chrono::microseconds(gap_us);
        while (Clock::now() < until) {
        }
        const auto t0 = Clock::now();
        ParallelFor(0, 4, 1, body);
        if (i >= kWarmup) us.push_back(Seconds(t0, Clock::now()) * 1e6);
      }
      std::sort(us.begin(), us.end());
      rows.push_back({lanes, gap_us, us[us.size() / 2],
                      us[us.size() * 99 / 100]});
    }
  }
  return rows;
}

/// Heap allocations of warmed stream windows at 1 lane and at the stream
/// pool's 4: a runtime with smoothing, drift monitoring and the journal on
/// takes 20 windows of one activity to warm up at each lane count, then 100
/// more are counted frame by frame. A multi-lane batch-1 forward goes
/// through the pool's hand-off, which the 1-lane run never reaches.
void MeasureStreamAllocations(AllocStats* allocs) {
  SetParallelThreads(1);
  core::CloudConfig config = BenchCloudConfig();
  config.train.epochs = 3;
  core::CloudInitializer cloud(config);
  core::ModelBundle bundle =
      Unwrap(cloud.Initialize(BenchCorpus(/*seed=*/23, /*per_class=*/2),
                              sensors::ActivityRegistry::BaseActivities()),
             "stream pretrain");
  core::SupportSet support = std::move(bundle.support);
  core::EdgeRuntime runtime(std::move(bundle).ToEdgeModel(),
                            std::move(support), core::IncrementalOptions{});
  runtime.EnableSmoothing(core::PredictionSmoother::Options{});
  runtime.EnableDriftMonitoring(core::DriftMonitor::Options{});
  runtime.EnableJournal();

  constexpr size_t kWarmup = 20, kWindows = 100, kRows = 120;
  constexpr size_t kLaneCounts[] = {1, 4};
  constexpr size_t kRowsPerRun = (kWarmup + kWindows) * kRows;
  sensors::SyntheticGenerator gen(29);
  const sensors::Recording rec = gen.Generate(
      sensors::DefaultActivityLibrary()[sensors::kStill],
      static_cast<double>(std::size(kLaneCounts) * kRowsPerRun) /
          sensors::kDefaultSampleRateHz);
  if (rec.num_samples() < std::size(kLaneCounts) * kRowsPerRun) {
    std::fprintf(stderr, "stream allocations: recording too short\n");
    std::exit(1);
  }
  sensors::Frame frame;
  for (size_t run = 0; run < std::size(kLaneCounts); ++run) {
    SetParallelThreads(kLaneCounts[run]);
    uint64_t all = 0, completing = 0;
    size_t emitted = 0;
    for (size_t r = 0; r < kRowsPerRun; ++r) {
      std::memcpy(frame.data(), rec.samples.RowPtr(run * kRowsPerRun + r),
                  sizeof(frame));
      const uint64_t before = HeapAllocations();
      auto pred = Unwrap(runtime.PushFrame(frame), "push frame");
      const uint64_t delta = HeapAllocations() - before;
      if (r < kWarmup * kRows) continue;
      all += delta;
      if (pred.has_value()) {
        completing += delta;
        ++emitted;
      }
    }
    if (emitted != kWindows) {
      std::fprintf(stderr,
                   "stream allocations: %zu windows emitted, want %zu\n",
                   emitted, kWindows);
      std::exit(1);
    }
    allocs->stream.push_back({kLaneCounts[run],
                              static_cast<double>(all) / kWindows,
                              static_cast<double>(completing) / kWindows});
  }
}

}  // namespace
}  // namespace magneto::bench

int main() {
  using namespace magneto;
  using namespace magneto::bench;

  const std::vector<size_t> sweep = {1, 2, 4, 8};
  std::vector<Workload> workloads;
  bool deterministic = true;

  // --- GEMM: 320^3, the backbone's dominant kernel shape class ---
  {
    const size_t dim = 320;
    Matrix a(dim, dim), b(dim, dim);
    for (size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = static_cast<float>((i * 2654435761u) % 17) - 8.0f;
      b.data()[i] = static_cast<float>((i * 40503u) % 13) - 6.0f;
    }
    Workload wl{"gemm_320", 2.0 * dim * dim * dim, "Mflop/s", sweep, {}};
    Matrix c;
    MatMulInto(a, b, &c);  // sized once: the runs time the kernel alone
    for (size_t t : sweep) {
      SetParallelThreads(t);
      const double seconds = MedianSeconds(11, [&] { MatMulInto(a, b, &c); });
      wl.samples.push_back({seconds, Fingerprint(c.data(), c.size())});
    }
    workloads.push_back(wl);
  }

  // --- Preprocessing pipeline throughput over a labeled corpus ---
  {
    const auto corpus = BenchCorpus(/*seed=*/21, /*per_class=*/4);
    preprocess::PipelineConfig config;
    config.features = preprocess::FeatureMode::kCombined;
    preprocess::Pipeline pipeline(config);
    Unwrap(pipeline.Fit(corpus), "pipeline fit");
    const size_t windows =
        Unwrap(pipeline.ProcessLabeled(corpus), "pipeline warmup").size();
    Workload wl{"pipeline_process", static_cast<double>(windows),
                "Mwindows/s", sweep, {}};
    for (size_t t : sweep) {
      SetParallelThreads(t);
      wl.samples.push_back(BestOf(3, [&] {
        auto ds = Unwrap(pipeline.ProcessLabeled(corpus), "pipeline process");
        Matrix m = ds.ToMatrix();
        return Fingerprint(m.data(), m.size());
      }));
    }
    workloads.push_back(wl);
  }

  // --- One edge retraining epoch: the paper backbone with the incremental
  // learner's options (batch of 32 pairs, distillation against a frozen
  // teacher on the retained rows) ---
  {
    const auto corpus = BenchCorpus(/*seed=*/22, /*per_class=*/6);
    preprocess::Pipeline pipeline{preprocess::PipelineConfig{}};
    sensors::FeatureDataset data = Unwrap(pipeline.Fit(corpus), "fit");
    learn::TrainOptions options = core::IncrementalOptions{}.train;
    options.epochs = 1;
    options.seed = 7;
    Rng rng(3);
    const nn::Sequential teacher = nn::BuildPaperBackbone(&rng);
    Workload wl{"siamese_epoch", static_cast<double>(data.size()),
                "Mexamples/s", sweep, {}};
    for (size_t t : sweep) {
      SetParallelThreads(t);
      nn::Sequential net;
      const double seconds = MedianSeconds(3, [&] {
        net = teacher.Clone();
        learn::SiameseTrainer trainer(options);
        Unwrap(trainer.Train(&net, data, &teacher, &data), "train");
      });
      uint64_t h = 1469598103934665603ull;
      for (const Matrix* p : net.Params()) {
        h ^= Fingerprint(p->data(), p->size());
      }
      wl.samples.push_back({seconds, h});
    }
    workloads.push_back(wl);
  }

  // --- GEMM kernel instantiations on the training shapes: every Linear
  // layer's forward MatMul and backward TransA/TransB for one step of the
  // paper backbone at batch 64 and 32 (the Siamese trainer's shapes), on one
  // lane so the kernels, not the pool, are compared ---
  std::vector<IsaRow> isa_rows;
  bool isa_identical = true, isa_fast = true;
  {
    SetParallelThreads(1);
    using gemm_internal::GemmIsa;
    const std::vector<size_t> dims = {80, 1024, 512, 128, 64, 128};
    struct Layer {
      Matrix x, w, g;
    };
    std::vector<Layer> layers;
    Rng rng(13);
    auto random = [&](size_t rows, size_t cols) {
      Matrix m(rows, cols);
      for (size_t i = 0; i < m.size(); ++i) {
        m.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
      }
      return m;
    };
    for (size_t batch : {64, 32}) {
      for (size_t l = 0; l + 1 < dims.size(); ++l) {
        layers.push_back({random(batch, dims[l]), random(dims[l], dims[l + 1]),
                          random(batch, dims[l + 1])});
      }
    }
    const struct {
      GemmIsa isa;
      const char* name;
    } isas[] = {{GemmIsa::kPortable, "portable"},
                {GemmIsa::kAvx2, "avx2"},
                {GemmIsa::kAvx512f, "avx512f"}};
    Matrix out;
    for (const auto& [isa, name] : isas) {
      if (!gemm_internal::IsaSupported(isa)) continue;
      // Timed without the fingerprint, which would cost as much as the
      // kernels; one more untimed step fingerprints the outputs.
      auto step = [&, isa = isa](bool fingerprint) {
        uint64_t h = 1469598103934665603ull;
        for (const Layer& layer : layers) {
          gemm_internal::MatMulIntoWith(isa, layer.x, layer.w, &out);
          if (fingerprint) h ^= Fingerprint(out.data(), out.size());
          gemm_internal::MatMulTransAIntoWith(isa, layer.x, layer.g, &out);
          if (fingerprint) h ^= Fingerprint(out.data(), out.size());
          gemm_internal::MatMulTransBIntoWith(isa, layer.g, layer.w, &out);
          if (fingerprint) h ^= Fingerprint(out.data(), out.size());
        }
        return h;
      };
      Sample sample = BestOf(10, [&] { return step(false); });
      sample.fingerprint = step(true);
      IsaRow row{name, sample};
      if (!isa_rows.empty()) {
        row.speedup_vs_portable =
            isa_rows.front().sample.seconds / sample.seconds;
        isa_identical &=
            sample.fingerprint == isa_rows.front().sample.fingerprint;
        isa_fast &= row.speedup_vs_portable >= 1.2;
      }
      isa_rows.push_back(row);
      std::printf(
          "gemm training shapes  %-8s %8.2f ms/step (x%.2f vs portable)\n",
          name, sample.seconds * 1e3, row.speedup_vs_portable);
    }
    if (!isa_identical) {
      std::fprintf(stderr,
                   "GEMM results differ across kernel instantiations!\n");
    }
    if (!isa_fast) {
      std::fprintf(stderr,
                   "a packed GEMM instantiation is below 1.2x the portable "
                   "kernel on the training shapes\n");
    }
  }

  // --- The training step's elementwise loops, before vs after ---
  const BeforeAfter adam = MeasureAdam();
  const BeforeAfter relu = MeasureReluBackward();
  std::printf("adam step (paper backbone) %8.3f ms before, %8.3f ms after "
              "(x%.2f)%s\n",
              adam.before, adam.after, adam.before / adam.after,
              adam.identical ? "" : "  BITS DIFFER");
  std::printf("relu backward              %8.3f ns/elem before, %8.3f after "
              "(x%.2f)%s\n",
              relu.before, relu.after, relu.before / relu.after,
              relu.identical ? "" : "  BITS DIFFER");
  if (!adam.identical || !relu.identical) {
    std::fprintf(stderr, "training-step loops differ from their scalar "
                         "reference!\n");
  }

  // --- The batch-1 stream window: row sweeps before vs after ---
  BeforeAfter denoise, features, completing;
  MeasureStreamWindow(&denoise, &features, &completing);
  std::printf("stream denoise             %8.2f us before, %8.2f us after "
              "(x%.2f)%s\n",
              denoise.before, denoise.after, denoise.before / denoise.after,
              denoise.identical ? "" : "  BITS DIFFER");
  std::printf("stream features            %8.2f us before, %8.2f us after "
              "(x%.2f)%s\n",
              features.before, features.after, features.before / features.after,
              features.identical ? "" : "  BITS DIFFER");
  std::printf("stream completing frame     %8.2f us before, %8.2f us after "
              "(x%.2f)%s\n",
              completing.before, completing.after,
              completing.before / completing.after,
              completing.identical ? "" : "  BITS DIFFER");
  if (!denoise.identical || !features.identical) {
    std::fprintf(stderr, "stream-window sweeps differ from their "
                         "column-at-a-time reference!\n");
  }
  if (!completing.identical) {
    std::fprintf(stderr, "streamed window features differ from the "
                         "whole-window path!\n");
  }

  // --- Forward-pass allocation traffic: reused vs fresh workspace ---
  AllocStats allocs;
  {
    SetParallelThreads(1);
    Rng rng(5);
    nn::Sequential net = nn::BuildMlp(64, {256, 128, 64}, &rng);
    Matrix x(64, 64);
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>((i * 2654435761u) % 19) - 9.0f;
    }
    constexpr size_t kForwards = 200;
    nn::ForwardWorkspace ws;
    net.Forward(x, &ws);  // grow buffers to their steady-state shapes
    uint64_t before = Matrix::AllocationCount();
    const auto t0 = Clock::now();
    for (size_t i = 0; i < kForwards; ++i) net.Forward(x, &ws);
    allocs.forward_us = Seconds(t0, Clock::now()) / kForwards * 1e6;
    allocs.reused_per_forward =
        static_cast<double>(Matrix::AllocationCount() - before) / kForwards;
    before = Matrix::AllocationCount();
    for (size_t i = 0; i < kForwards; ++i) {
      nn::ForwardWorkspace fresh;
      net.Forward(x, &fresh);
    }
    allocs.fresh_per_forward =
        static_cast<double>(Matrix::AllocationCount() - before) / kForwards;
    std::printf(
        "forward allocations: %.2f/call reused workspace vs %.2f/call "
        "fresh (%.1f us/forward)\n",
        allocs.reused_per_forward, allocs.fresh_per_forward,
        allocs.forward_us);
  }

  // --- NCM serving allocations: with a caller-owned warmed scratch the
  // classify steady state must be exactly allocation-free (the contract the
  // EdgeFleet serve path relies on), fp32 and int8 store alike ---
  bool ncm_alloc_free = true;
  {
    SetParallelThreads(1);
    Rng rng(9);
    const size_t dim = 32, classes = 64;
    core::NcmClassifier ncm;
    for (size_t c = 0; c < classes; ++c) {
      Matrix rows(4, dim);
      for (size_t i = 0; i < rows.size(); ++i) {
        rows.data()[i] =
            static_cast<float>(rng.Normal(static_cast<double>(c), 1.0));
      }
      CheckOk(ncm.SetPrototypeFromEmbeddings(
                  static_cast<sensors::ActivityId>(100 + c), rows),
              "set prototype");
    }
    std::vector<float> query(dim, 0.5f);
    constexpr size_t kCalls = 1000;
    core::NcmClassifier::Scratch scratch;
    Unwrap(ncm.Classify(query.data(), dim, &scratch), "warm classify");
    uint64_t before = HeapAllocations();
    for (size_t i = 0; i < kCalls; ++i) {
      Unwrap(ncm.Classify(query.data(), dim, &scratch), "classify");
    }
    allocs.ncm_scratch_per_classify =
        static_cast<double>(HeapAllocations() - before) / kCalls;
    before = HeapAllocations();
    for (size_t i = 0; i < kCalls; ++i) {
      core::NcmClassifier::Scratch fresh;
      Unwrap(ncm.Classify(query.data(), dim, &fresh), "classify fresh");
    }
    allocs.ncm_fresh_per_classify =
        static_cast<double>(HeapAllocations() - before) / kCalls;

    CheckOk(ncm.QuantizePrototypes(), "quantize prototypes");
    Unwrap(ncm.Classify(query.data(), dim, &scratch), "warm int8 classify");
    before = HeapAllocations();
    for (size_t i = 0; i < kCalls; ++i) {
      Unwrap(ncm.Classify(query.data(), dim, &scratch), "int8 classify");
    }
    allocs.ncm_int8_scratch_per_classify =
        static_cast<double>(HeapAllocations() - before) / kCalls;

    std::printf(
        "ncm classify allocations: %.3f/call warmed scratch, %.3f/call int8 "
        "scratch, %.2f/call fresh scratch\n",
        allocs.ncm_scratch_per_classify, allocs.ncm_int8_scratch_per_classify,
        allocs.ncm_fresh_per_classify);
    if (allocs.ncm_scratch_per_classify != 0.0 ||
        allocs.ncm_int8_scratch_per_classify != 0.0) {
      std::fprintf(stderr,
                   "NCM classify with warmed scratch allocated on the "
                   "steady-state path!\n");
      ncm_alloc_free = false;
    }
  }

  // --- The small-batch backbone forward: row-major vs panel weights ---
  const std::vector<ForwardRow> forward = MeasureSmallBatchForward();
  bool forward_identical = true;
  for (const ForwardRow& row : forward) {
    std::printf("batch-%zu forward %zu lane(s) %8.2f us before, %8.2f us "
                "after (x%.2f)%s\n",
                row.rows, row.lanes, row.us.before, row.us.after,
                row.us.before / row.us.after,
                row.us.identical ? "" : "  BITS DIFFER");
    forward_identical &= row.us.identical;
  }
  if (!forward_identical) {
    std::fprintf(stderr, "a small-batch forward on panel weights differs "
                         "from the row-major one!\n");
  }

  // --- A warmed stream window must not touch the heap, at any lane count ---
  MeasureStreamAllocations(&allocs);
  bool stream_alloc_free = true;
  for (const AllocStats::Stream& row : allocs.stream) {
    std::printf("stream window allocations, %zu lane(s): %.2f/window, %.2f in "
                "the completing PushFrame\n",
                row.lanes, row.per_window, row.per_completing_call);
    stream_alloc_free &= row.per_window == 0.0;
  }
  if (!stream_alloc_free) {
    std::fprintf(stderr, "a warmed stream window allocated on the heap!\n");
  }

  for (const Workload& wl : workloads) {
    std::printf("%-18s", wl.name.c_str());
    for (size_t i = 0; i < wl.threads.size(); ++i) {
      std::printf("  %zut: %8.2f ms (x%.2f)", wl.threads[i],
                  wl.samples[i].seconds * 1e3,
                  wl.samples.front().seconds / wl.samples[i].seconds);
    }
    std::printf("\n");
    for (const Sample& s : wl.samples) {
      if (s.fingerprint != wl.samples.front().fingerprint) {
        std::fprintf(stderr, "%s: results differ across thread counts!\n",
                     wl.name.c_str());
        deterministic = false;
      }
    }
  }

  // --- Handing a region to the pool, after short and long idle gaps ---
  const std::vector<HandoffRow> handoff = MeasureRegionHandoff();
  for (const HandoffRow& row : handoff) {
    std::printf("empty region %zu lane(s) after %4d us idle: p50 %6.2f us, "
                "p99 %6.2f us\n",
                row.lanes, row.gap_us, row.p50_us, row.p99_us);
  }

  Report(workloads, deterministic, allocs, isa_rows, adam, relu, denoise,
         features, completing, forward, handoff);
  std::printf("wrote BENCH_parallel.json (hardware threads: %u)\n",
              std::thread::hardware_concurrency());
  const bool loops_identical = adam.identical && relu.identical &&
                               denoise.identical && features.identical &&
                               completing.identical && forward_identical;
  return (deterministic && ncm_alloc_free && stream_alloc_free &&
          isa_identical && isa_fast && loops_identical)
             ? 0
             : 1;
}
