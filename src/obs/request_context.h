#ifndef MAGNETO_OBS_REQUEST_CONTEXT_H_
#define MAGNETO_OBS_REQUEST_CONTEXT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace magneto::obs {

/// Request-scoped identity and per-stage timing for the serving path.
///
/// A `RequestContext` is allocated when a window is admitted into the fleet
/// and rides along with the request through every thread it crosses
/// (admission queue -> worker bulk-pop -> micro-batch combiner -> embed ->
/// classify -> publish). Each hop stamps its stage, so at publish time the
/// request decomposes into adjacent intervals that sum *exactly* to the
/// end-to-end latency. The id doubles as the Chrome trace flow-event id and
/// the histogram exemplar id, so a p99 outlier in the metrics snapshot links
/// directly to its slice chain in the trace and its flight-recorder record.

/// Process-unique, monotonically increasing request id. 1-based; 0 means
/// "no request" everywhere (flows, exemplars, flight records).
inline uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The serving-path stages a request passes through, in order. Stage k's
/// interval is [stage_ns[k-1], stage_ns[k]); kAdmit is the epoch.
enum class RequestStage : size_t {
  kAdmit = 0,     ///< SubmitWindow accepted the request into the queue
  kDequeue,       ///< a serve worker bulk-popped it off the admission queue
  kEmbedStart,    ///< its micro-batch reached the combining leader's Embed
  kEmbedEnd,      ///< stacked backbone forward finished
  kClassifyEnd,   ///< per-request NCM classification finished
  kPublish,       ///< prediction handed back to the caller
  kNumStages,
};

constexpr size_t kNumRequestStages =
    static_cast<size_t>(RequestStage::kNumStages);

struct RequestContext {
  uint64_t id = 0;
  uint32_t session = 0;
  /// Steady-clock stamps, one per stage; 0 = not reached.
  std::array<uint64_t, kNumRequestStages> stage_ns{};

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }

  void Stamp(RequestStage stage) {
    stage_ns[static_cast<size_t>(stage)] = NowNs();
  }
  void StampAt(RequestStage stage, uint64_t now_ns) {
    stage_ns[static_cast<size_t>(stage)] = now_ns;
  }
  uint64_t At(RequestStage stage) const {
    return stage_ns[static_cast<size_t>(stage)];
  }

  /// Microseconds between two stamped stages; 0 when either stamp is missing
  /// or the clock stepped (stamps are same-process steady-clock, so a
  /// negative interval means the stage was never reached).
  double StageUs(RequestStage from, RequestStage to) const {
    const uint64_t a = At(from);
    const uint64_t b = At(to);
    if (a == 0 || b == 0 || b < a) return 0.0;
    return static_cast<double>(b - a) / 1000.0;
  }

  /// Admit -> publish, the caller-visible latency.
  double EndToEndUs() const {
    return StageUs(RequestStage::kAdmit, RequestStage::kPublish);
  }
};

}  // namespace magneto::obs

#endif  // MAGNETO_OBS_REQUEST_CONTEXT_H_
