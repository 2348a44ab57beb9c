#ifndef MAGNETO_PLATFORM_EDGE_FLEET_H_
#define MAGNETO_PLATFORM_EDGE_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/model_bundle.h"
#include "core/stream_session.h"
#include "obs/request_context.h"
#include "sensors/sensor_types.h"

namespace magneto::obs {
class FlightRecorder;
class SloMonitor;
}  // namespace magneto::obs

namespace magneto::platform {

/// Tuning knobs of the multi-session serving layer.
struct FleetOptions {
  /// Micro-batch cap: up to this many pending windows (across sessions) are
  /// stacked into one backbone forward. 1 disables cross-request batching.
  size_t max_batch = 8;
  /// Micro-batches allowed in flight simultaneously. Each in-flight batch
  /// runs on its own leader thread with its own forward workspace — the
  /// backbone is immutable and its Forward is const, so >1 trades batch
  /// size for embed parallelism. 1 reproduces strictly serial batching.
  size_t max_concurrent_batches = 1;
  /// Bound of the open-loop admission queue (`SubmitWindow`). Arrivals past
  /// capacity are shed (rejected), never queued — an open-loop generator
  /// does not slow down, so an unbounded queue would grow without limit
  /// whenever offered load exceeds service capacity.
  size_t admission_capacity = 256;
  /// Worker threads draining the admission queue into the micro-batcher.
  /// 0 disables the open-loop path (`SubmitWindow` then check-fails).
  size_t serve_threads = 0;
  /// Flight recorder receiving one record per open-loop request (published,
  /// shed, or errored). nullptr = the process-wide
  /// `obs::FlightRecorder::Global()`; tests inject their own.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Optional SLO monitor fed from the open-loop publish path
  /// (latency / shed / error observations). nullptr = disabled.
  obs::SloMonitor* slo_monitor = nullptr;
};

/// Per-session lifetime counters: the stream's, plus open-loop admissions.
struct FleetSessionStats : core::StreamStats {
  /// Open-loop path only: windows admitted via SubmitWindow, and windows
  /// shed because the admission queue was full.
  size_t submitted = 0;
  size_t rejected = 0;
};

/// Multi-session edge serving: one process hosts N independent user sessions
/// over a single shared, immutable deployed bundle and the global ThreadPool
/// — the shape the paper's deployment implies once "all inference happens
/// on-device" meets a simulator (or an edge gateway) that must drive many
/// users at once.
///
/// ## Threading model & concurrency contract
///
/// Three kinds of state, three rules:
///
///  1. **Shared immutable deployment** — a `core::EdgeModel` plus its
///     support set, held as `shared_ptr<const Deployment>` and never mutated
///     after construction; every reader works off a snapshot it pins with
///     its own reference. The backbone included: all forward-pass state
///     lives in a caller-owned `nn::ForwardWorkspace`, so
///     `Sequential::Forward` is const and any number of threads embed
///     through the same weights concurrently, each with its own
///     (thread-local) workspace. There is no embedding mutex in the fleet.
///  2. **Per-session mutable state** — a `core::StreamSession` (the one
///     `core::EdgeRuntime` streams through) plus open-loop counters, guarded
///     by a per-session mutex; sessions never touch each other's state, so
///     S sessions classify concurrently with zero shared-state contention
///     outside the batcher handoff.
///  3. **Copy-on-swap promotion** — `PromoteBundle`, the only way the shared
///     deployment changes, builds a complete new deployment and swaps the
///     shared pointer. In-flight classifications keep the snapshot they
///     pinned and finish on the old model; no request ever observes a
///     half-updated deployment and nothing stalls. A session notices the new
///     version on its next `PushFrame` and calls
///     `StreamSession::ResetContext`.
///
/// ## Cross-request micro-batching
///
/// A thread that needs a classification enqueues its feature vector and the
/// first thread to find a free leader slot becomes a batch leader: it
/// drains up to `max_batch` pending requests, stacks them into one matrix,
/// runs a single stacked forward through its own workspace (the same
/// stacking trick `NcmClassifier::FromSupportSet` uses for support-set
/// re-embedding), classifies each row, publishes the results, and steps
/// down once its own request is served. Up to `max_concurrent_batches`
/// leaders embed in parallel — the const backbone makes the stacked
/// forwards lock-free. Row-independent kernels (the PR 1 determinism
/// contract) make every per-window result bit-identical regardless of
/// which batch it landed in — so per-session prediction streams are
/// reproducible at any thread count and batch size.
///
/// ## Open-loop admission (load generation)
///
/// `PushFrame` is closed-loop: the caller blocks for its prediction, so
/// offered load can never exceed service capacity and micro-batches rarely
/// form unless many session threads collide. `SubmitWindow` is the
/// open-loop half: a non-blocking admission of one pre-featurized window
/// into a bounded queue drained by `serve_threads` workers. When arrivals
/// outpace service the queue fills and further arrivals are shed
/// (`false`, `fleet.rejected`) — and the backlog is exactly what lets the
/// workers drain multi-window micro-batches. Submitted windows take the
/// classification-only path: session stats and `last_prediction` update.
/// Metrics: `fleet.queue_depth` (gauge), `fleet.queue_wait_us` (histogram),
/// `fleet.rejected` (counter).
///
/// ## Request-scoped observability (open-loop path)
///
/// Every admitted window carries an `obs::RequestContext`: a monotonic id
/// plus per-stage steady-clock stamps (admit / dequeue / embed start+end /
/// classify / publish). The id threads one request through three sinks —
/// trace flow events (`fleet.request` s/t/f markers across the admission,
/// worker, combiner, and publish threads), `fleet.stage.*` histograms whose
/// bucket exemplars carry the id, and one `obs::FlightRecord` per request
/// (including sheds, which also drive the recorder's shed-burst anomaly).
/// Adjacent stages partition the end-to-end latency exactly, so the stage
/// histograms' means sum to the e2e mean. See DESIGN.md "Request tracing,
/// flight recorder & SLOs".
///
/// Calls on *different* sessions may race freely. Calls on the *same*
/// session are serialized by the session mutex; drive each session from one
/// logical producer for meaningful frame ordering.
class EdgeFleet {
 public:
  /// Boots `num_sessions` sessions over the deployed bundle. Fails on an
  /// unfitted pipeline, an empty classifier, or zero sessions.
  static Result<std::unique_ptr<EdgeFleet>> Create(core::ModelBundle bundle,
                                                   size_t num_sessions,
                                                   FleetOptions options = {});

  ~EdgeFleet();
  EdgeFleet(const EdgeFleet&) = delete;
  EdgeFleet& operator=(const EdgeFleet&) = delete;

  size_t num_sessions() const { return sessions_.size(); }

  /// Feeds one frame into `session`'s stream. Returns a prediction whenever
  /// the frame completes a window; otherwise nullopt. Blocks while the
  /// window's embedding rides a micro-batch.
  Result<std::optional<core::NamedPrediction>> PushFrame(
      size_t session, const sensors::Frame& frame);

  // -- Open-loop admission ------------------------------------------------------

  /// Admits one pre-featurized window for `session` into the bounded
  /// queue. Never blocks: returns false (and sheds the window) when the
  /// queue is at `admission_capacity` or `session` is out of range.
  /// Requires `serve_threads > 0`. See the class comment for what the
  /// served path does and does not update.
  bool SubmitWindow(size_t session, std::vector<float> features);

  /// Blocks until every admitted window has been served (queue empty and
  /// no submission in flight).
  void DrainSubmitted();

  // -- Bundle promotion (copy-on-swap) ----------------------------------------

  /// Atomically replaces the shared deployment. In-flight classifications
  /// finish on the deployment they pinned; subsequent windows use the new
  /// one. Sessions reset their stream context on their next PushFrame.
  Status PromoteBundle(core::ModelBundle bundle);

  // -- Introspection ----------------------------------------------------------

  /// Monotone deployment version; starts at 1, +1 per promotion.
  uint64_t deployment_version() const;

  FleetSessionStats session_stats(size_t session) const;
  std::optional<core::NamedPrediction> last_prediction(size_t session) const;

  /// Deep-copies the current shared deployment into a transferable bundle.
  core::ModelBundle ToBundle() const;

 private:
  /// The immutable-shared half of the fleet. Genuinely const after
  /// construction — only the model's const paths run, so no mutex or
  /// `mutable` is needed anywhere.
  struct Deployment {
    const core::EdgeModel model;
    core::SupportSet support;
    uint64_t version = 0;
  };

  /// One pending classification handed to the micro-batcher. The request
  /// pins the deployment that featurized its window, so a window is always
  /// classified by the matching backbone even when a promotion lands while
  /// it queues.
  struct PendingRequest {
    /// The window's feature row, owned by the caller (a session's feature
    /// row or a submission), which blocks until the request is served.
    std::span<const float> features;
    std::shared_ptr<const Deployment> deployment;
    core::NamedPrediction prediction;
    Status status = Status::Ok();
    bool done = false;  ///< guarded by batch_mu_
    /// Request-scoped tracing context (open-loop path only; closed-loop
    /// PushFrame requests carry none). Owned by the worker's chunk; the
    /// serving leader stamps embed/classify stages through this pointer.
    obs::RequestContext* ctx = nullptr;
    /// Size of the micro-batch this request was embedded in (set by
    /// ServeBatch; 0 = never reached a batch).
    uint32_t batch_size = 0;
  };

  /// One admitted open-loop window waiting for a worker. Timing lives in
  /// `ctx` (the kAdmit stamp is the enqueue time).
  struct Submission {
    size_t session = 0;
    std::vector<float> features;
    obs::RequestContext ctx;
  };

  struct Session {
    explicit Session(core::StreamSession::Counters counters)
        : stream(counters) {}
    mutable std::mutex mu;
    core::StreamSession stream;
    size_t submitted = 0;  ///< open-loop windows admitted
    size_t rejected = 0;   ///< open-loop windows shed
    uint64_t deployment_version = 0;  ///< last version this session saw
  };

  EdgeFleet(core::ModelBundle bundle, size_t num_sessions,
            FleetOptions options);

  std::shared_ptr<const Deployment> CurrentDeployment() const;

  /// Pushes `requests` into the micro-batcher and blocks until every one is
  /// classified, leading batches whenever a leader slot is free. The shared
  /// combining core of both serving paths: closed-loop callers bring one
  /// request, open-loop workers bring a whole backlog chunk, and requests
  /// from different callers coalesce into the same stacked forwards.
  void EnqueueAndServe(const std::vector<PendingRequest*>& requests);

  /// Embeds + classifies one drained batch (all pinned to the same
  /// deployment). Runs without batch_mu_ held; concurrent calls are safe
  /// (each serving thread embeds through its own workspace).
  void ServeBatch(const std::vector<PendingRequest*>& batch);

  /// Worker body: pops admitted windows — up to `max_batch` per pop, so a
  /// backlog turns directly into multi-window batches — and classifies them.
  void WorkerLoop();
  void ServeChunk(std::vector<Submission> chunk);

  /// Retires one open-loop request against every observability sink (stage
  /// histograms + exemplars, trace flow end, flight record, SLO monitor).
  void PublishObservability(obs::RequestContext& ctx,
                            const PendingRequest& request,
                            uint64_t deployment_version);

  FleetOptions options_;
  std::vector<std::unique_ptr<Session>> sessions_;

  mutable std::mutex deploy_mu_;
  std::shared_ptr<const Deployment> deployment_;  ///< guarded by deploy_mu_
  std::atomic<uint64_t> next_version_{2};  ///< version 1 = the Create bundle

  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::deque<PendingRequest*> batch_queue_;  ///< guarded by batch_mu_
  size_t active_leaders_ = 0;                ///< guarded by batch_mu_

  std::mutex admit_mu_;
  std::condition_variable admit_cv_;  ///< workers wait for arrivals
  std::condition_variable drain_cv_;  ///< DrainSubmitted waits for quiesce
  std::deque<Submission> admit_queue_;  ///< guarded by admit_mu_
  size_t serving_now_ = 0;              ///< popped, not yet served
  bool stopping_ = false;               ///< guarded by admit_mu_
  std::vector<std::thread> workers_;
};

}  // namespace magneto::platform

#endif  // MAGNETO_PLATFORM_EDGE_FLEET_H_
