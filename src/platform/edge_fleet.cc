#include "platform/edge_fleet.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo_monitor.h"
#include "obs/trace.h"

namespace magneto::platform {

namespace {

struct FleetMetrics {
  obs::Counter* requests =
      obs::Registry::Global().GetCounter("fleet.requests");
  obs::Counter* frames = obs::Registry::Global().GetCounter("fleet.frames");
  obs::Counter* windows = obs::Registry::Global().GetCounter("fleet.windows");
  obs::Counter* predictions =
      obs::Registry::Global().GetCounter("fleet.predictions");
  obs::Counter* batches = obs::Registry::Global().GetCounter("fleet.batches");
  obs::Counter* promotions =
      obs::Registry::Global().GetCounter("fleet.promotions");
  obs::Counter* session_resets =
      obs::Registry::Global().GetCounter("fleet.session_resets");
  obs::Counter* rejected = obs::Registry::Global().GetCounter("fleet.rejected");
  obs::Gauge* sessions = obs::Registry::Global().GetGauge("fleet.sessions");
  obs::Gauge* queue_depth =
      obs::Registry::Global().GetGauge("fleet.queue_depth");
  obs::Histogram* batch_size = obs::Registry::Global().GetHistogram(
      "fleet.batch_size", {1, 2, 4, 8, 16, 32, 64});
  obs::Histogram* classify_us = obs::Registry::Global().GetHistogram(
      "fleet.classify_us", obs::LatencyBucketsUs());
  // Queue wait and the per-stage attribution histograms live on the
  // log-spaced preset: serving stages are microseconds-scale and a p99 is
  // only as accurate as its bucket. Tail buckets carry request-id exemplars.
  obs::Histogram* queue_wait_us = obs::Registry::Global().GetHistogram(
      "fleet.queue_wait_us", obs::LogLatencyBucketsUs());
  // Adjacent-stage intervals of one open-loop request; recorded together at
  // publish, so all five histograms have identical counts and their means
  // sum exactly to the end-to-end mean.
  obs::Histogram* stage_queue_us = obs::Registry::Global().GetHistogram(
      "fleet.stage.queue_us", obs::LogLatencyBucketsUs());
  obs::Histogram* stage_batch_wait_us = obs::Registry::Global().GetHistogram(
      "fleet.stage.batch_wait_us", obs::LogLatencyBucketsUs());
  obs::Histogram* stage_embed_us = obs::Registry::Global().GetHistogram(
      "fleet.stage.embed_us", obs::LogLatencyBucketsUs());
  obs::Histogram* stage_classify_us = obs::Registry::Global().GetHistogram(
      "fleet.stage.classify_us", obs::LogLatencyBucketsUs());
  obs::Histogram* stage_publish_us = obs::Registry::Global().GetHistogram(
      "fleet.stage.publish_us", obs::LogLatencyBucketsUs());
  obs::Histogram* e2e_us = obs::Registry::Global().GetHistogram(
      "fleet.e2e_us", obs::LogLatencyBucketsUs());
};

FleetMetrics& Metrics() {
  static FleetMetrics* metrics = new FleetMetrics;
  return *metrics;
}

obs::FlightRecorder& Recorder(const FleetOptions& options) {
  return options.flight_recorder != nullptr ? *options.flight_recorder
                                            : obs::FlightRecorder::Global();
}

/// Flow-event name shared by every s/t/f marker of one request's life.
constexpr const char* kRequestFlow = "fleet.request";

/// What `Create` and `PromoteBundle` refuse to deploy.
Status CheckDeployable(const core::ModelBundle& bundle) {
  if (!bundle.pipeline.fitted()) {
    return Status::FailedPrecondition("bundle pipeline is not fitted");
  }
  if (bundle.classifier.num_classes() == 0) {
    return Status::FailedPrecondition("bundle classifier has no classes");
  }
  return Status::Ok();
}

}  // namespace

// -- Construction -------------------------------------------------------------

EdgeFleet::EdgeFleet(core::ModelBundle bundle, size_t num_sessions,
                     FleetOptions options)
    : options_(std::move(options)) {
  core::SupportSet support = std::move(bundle.support);
  deployment_ = std::make_shared<const Deployment>(
      std::move(bundle).ToEdgeModel(), std::move(support), /*version=*/1);
  const core::StreamSession::Counters counters{
      Metrics().frames, Metrics().windows, Metrics().predictions};
  sessions_.reserve(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    auto session = std::make_unique<Session>(counters);
    session->deployment_version = deployment_->version;
    sessions_.push_back(std::move(session));
  }
  Metrics().sessions->Set(static_cast<double>(num_sessions));
  workers_.reserve(options_.serve_threads);
  // Each serve worker starts on its own CPU, away from its creator's (which
  // usually drives the fleet), as the pool's workers do.
  const int home = CurrentCpu();
  for (size_t i = 0; i < options_.serve_threads; ++i) {
    workers_.emplace_back([this, home, i] {
      SpreadFrom(home, i + 1);
      WorkerLoop();
    });
  }
}

EdgeFleet::~EdgeFleet() {
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    stopping_ = true;
  }
  admit_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Result<std::unique_ptr<EdgeFleet>> EdgeFleet::Create(core::ModelBundle bundle,
                                                     size_t num_sessions,
                                                     FleetOptions options) {
  if (num_sessions == 0) {
    return Status::InvalidArgument("a fleet needs at least one session");
  }
  if (options.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (options.max_concurrent_batches == 0) {
    return Status::InvalidArgument("max_concurrent_batches must be >= 1");
  }
  if (options.serve_threads > 0 && options.admission_capacity == 0) {
    return Status::InvalidArgument(
        "admission_capacity must be >= 1 when serve_threads > 0");
  }
  MAGNETO_RETURN_IF_ERROR(CheckDeployable(bundle));
  return std::unique_ptr<EdgeFleet>(
      new EdgeFleet(std::move(bundle), num_sessions, std::move(options)));
}

// -- Deployment management ----------------------------------------------------

std::shared_ptr<const EdgeFleet::Deployment> EdgeFleet::CurrentDeployment()
    const {
  std::lock_guard<std::mutex> lock(deploy_mu_);
  return deployment_;
}

uint64_t EdgeFleet::deployment_version() const {
  return CurrentDeployment()->version;
}

Status EdgeFleet::PromoteBundle(core::ModelBundle bundle) {
  MAGNETO_RETURN_IF_ERROR(CheckDeployable(bundle));
  // Copy-on-swap: the new deployment is fully built before the pointer
  // flips, so no reader ever sees a half-initialized model, and in-flight
  // classifications keep their pinned snapshot alive through the shared_ptr.
  core::SupportSet support = std::move(bundle.support);
  auto next = std::make_shared<const Deployment>(
      std::move(bundle).ToEdgeModel(), std::move(support),
      next_version_.fetch_add(1));
  std::lock_guard<std::mutex> lock(deploy_mu_);
  deployment_ = std::move(next);
  Metrics().promotions->Increment();
  return Status::Ok();
}

core::ModelBundle EdgeFleet::ToBundle() const {
  std::shared_ptr<const Deployment> dep = CurrentDeployment();
  return core::ModelBundle(dep->model, dep->support);
}

// -- Micro-batched classification ---------------------------------------------

void EdgeFleet::ServeBatch(const std::vector<PendingRequest*>& batch) {
  Metrics().batches->Increment();
  Metrics().batch_size->Record(static_cast<double>(batch.size()));
  const core::EdgeModel& model = batch.front()->deployment->model;
  const size_t input_dim = model.backbone().InputDim();

  // Validate dims first so a malformed request degrades to a per-request
  // error, never a malformed stack.
  std::vector<PendingRequest*> valid;
  valid.reserve(batch.size());
  for (PendingRequest* req : batch) {
    if (input_dim > 0 && req->features.size() != input_dim) {
      req->status = Status::InvalidArgument(
          "feature vector has dim " + std::to_string(req->features.size()) +
          ", backbone expects " + std::to_string(input_dim));
      continue;
    }
    valid.push_back(req);
  }
  if (valid.empty()) return;

  // Stack into one matrix and run a single forward — the same trick
  // NcmClassifier::FromSupportSet uses to re-embed a whole support set.
  // Row-independent kernels keep each row's result identical to a
  // batch-of-one forward, so batch composition never changes a prediction.
  const size_t dim = valid.front()->features.size();
  Matrix stacked(valid.size(), dim);
  for (size_t r = 0; r < valid.size(); ++r) {
    std::memcpy(stacked.RowPtr(r), valid[r]->features.data(),
                dim * sizeof(float));
  }
  // The flow chain hops onto the combiner thread here: this batch may be
  // served by a different worker (or a closed-loop caller) than the one
  // that popped the requests off the admission queue. The embed-start stamp
  // doubles as the span begin and the step timestamps.
  const uint64_t embed_start_ns = obs::RequestContext::NowNs();
  obs::TraceSpan span("EdgeFleet::ServeBatch", embed_start_ns);
  for (PendingRequest* req : valid) {
    if (req->ctx == nullptr) continue;
    obs::TraceFlowStepAt(kRequestFlow, req->ctx->id, embed_start_ns);
    req->ctx->StampAt(obs::RequestStage::kEmbedStart, embed_start_ns);
    req->batch_size = static_cast<uint32_t>(valid.size());
  }
  // One workspace per serving thread: the backbone is immutable and its
  // Forward is const, so concurrent leaders (same deployment or old pinned
  // + newly promoted) embed in parallel with zero shared mutable state. The
  // workspace reaches its high-water shape once and is reused thereafter.
  static thread_local nn::ForwardWorkspace ws;
  const Matrix& embeddings = model.backbone().Forward(stacked, &ws);
  const uint64_t embed_end_ns = obs::RequestContext::NowNs();
  for (PendingRequest* req : valid) {
    if (req->ctx != nullptr) {
      req->ctx->StampAt(obs::RequestStage::kEmbedEnd, embed_end_ns);
    }
  }
  // Like the forward workspace above: one classifier scratch per serving
  // thread keeps the NCM scan (its distance buffer) allocation-free in
  // steady state. The classifier is immutable
  // and per-call state lives entirely in the scratch, so concurrent
  // leaders — including ones pinning different deployments across a
  // promotion — share nothing.
  static thread_local core::NcmClassifier::Scratch ncm_scratch;
  for (size_t r = 0; r < valid.size(); ++r) {
    Result<core::NamedPrediction> pred = model.ClassifyEmbedding(
        embeddings.RowPtr(r), embeddings.cols(), &ncm_scratch);
    if (pred.ok()) {
      valid[r]->prediction = std::move(pred).value();
    } else {
      valid[r]->status = pred.status();
    }
    if (valid[r]->ctx != nullptr) {
      valid[r]->ctx->Stamp(obs::RequestStage::kClassifyEnd);
    }
  }
}

void EdgeFleet::EnqueueAndServe(
    const std::vector<PendingRequest*>& requests) {
  std::unique_lock<std::mutex> lock(batch_mu_);
  for (PendingRequest* req : requests) batch_queue_.push_back(req);
  const auto all_done = [&requests] {
    for (const PendingRequest* req : requests) {
      if (!req->done) return false;
    }
    return true;
  };
  while (!all_done()) {
    if (active_leaders_ < options_.max_concurrent_batches &&
        !batch_queue_.empty()) {
      // Combining leader: serve FIFO batches until our own requests have
      // been classified (usually the first batch — it contains us), then
      // step down and wake a successor for anything still queued. With
      // max_concurrent_batches > 1 several leaders drain disjoint batches
      // at once; another leader may serve our requests, in which case the
      // inner loop exits on done without leading a batch.
      ++active_leaders_;
      while (!all_done() && !batch_queue_.empty()) {
        std::vector<PendingRequest*> batch;
        batch.reserve(std::min(options_.max_batch, batch_queue_.size()));
        const Deployment* pinned = batch_queue_.front()->deployment.get();
        while (!batch_queue_.empty() && batch.size() < options_.max_batch &&
               batch_queue_.front()->deployment.get() == pinned) {
          batch.push_back(batch_queue_.front());
          batch_queue_.pop_front();
        }
        lock.unlock();
        ServeBatch(batch);
        lock.lock();
        for (PendingRequest* served : batch) served->done = true;
        batch_cv_.notify_all();
      }
      --active_leaders_;
      if (!batch_queue_.empty()) batch_cv_.notify_all();
    } else {
      batch_cv_.wait(lock);
    }
  }
}

// -- Open-loop admission ------------------------------------------------------

bool EdgeFleet::SubmitWindow(size_t session, std::vector<float> features) {
  if (workers_.empty()) {
    MAGNETO_LOG(Fatal)
        << "SubmitWindow requires FleetOptions::serve_threads > 0";
  }
  if (session >= sessions_.size()) return false;
  Submission sub;
  sub.session = session;
  sub.features = std::move(features);
  sub.ctx.id = obs::NextRequestId();
  sub.ctx.session = static_cast<uint32_t>(session);
  sub.ctx.Stamp(obs::RequestStage::kAdmit);
  const uint64_t request_id = sub.ctx.id;
  // The admit stamp doubles as the span begin and the flow-begin timestamp:
  // tracing adds no clock reads on this path beyond the stamps the latency
  // histograms need anyway.
  const uint64_t admit_ns = sub.ctx.At(obs::RequestStage::kAdmit);
  obs::TraceSpan span("EdgeFleet::SubmitWindow", admit_ns);
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (admit_queue_.size() < options_.admission_capacity) {
      admit_queue_.push_back(std::move(sub));
      Metrics().queue_depth->Set(static_cast<double>(admit_queue_.size()));
      admitted = true;
    }
  }
  // Session stats outside admit_mu_: never hold the admission lock while
  // taking a session mutex (workers take them in the same order).
  Session& s = *sessions_[session];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (admitted) {
      ++s.submitted;
    } else {
      ++s.rejected;
    }
  }
  if (admitted) {
    // The flow starts only for requests that actually enter the system; a
    // shed window leaves a flight record instead of a dangling flow `s`.
    obs::TraceFlowBeginAt(kRequestFlow, request_id, admit_ns);
    Recorder(options_).NoteAdmit();
    admit_cv_.notify_one();
  } else {
    Metrics().rejected->Increment();
    Recorder(options_).RecordShed(request_id,
                                  static_cast<uint32_t>(session));
    if (options_.slo_monitor != nullptr) options_.slo_monitor->ObserveShed();
  }
  return admitted;
}

void EdgeFleet::DrainSubmitted() {
  std::unique_lock<std::mutex> lock(admit_mu_);
  drain_cv_.wait(lock,
                 [&] { return admit_queue_.empty() && serving_now_ == 0; });
}

void EdgeFleet::WorkerLoop() {
  for (;;) {
    std::vector<Submission> chunk;
    {
      std::unique_lock<std::mutex> lock(admit_mu_);
      admit_cv_.wait(lock,
                     [&] { return stopping_ || !admit_queue_.empty(); });
      if (stopping_) return;  // backlog abandoned; we are being destroyed
      // Bulk-pop up to max_batch: under backlog the chunk IS the batch, so
      // batch size tracks queue depth deterministically instead of relying
      // on workers colliding inside the combiner (which never happens on a
      // single-core host).
      const size_t take = std::min(options_.max_batch, admit_queue_.size());
      chunk.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        chunk.push_back(std::move(admit_queue_.front()));
        admit_queue_.pop_front();
      }
      serving_now_ += chunk.size();
      Metrics().queue_depth->Set(static_cast<double>(admit_queue_.size()));
    }
    const uint64_t dequeue_ns = obs::RequestContext::NowNs();
    for (Submission& sub : chunk) {
      sub.ctx.StampAt(obs::RequestStage::kDequeue, dequeue_ns);
      Metrics().queue_wait_us->Record(
          sub.ctx.StageUs(obs::RequestStage::kAdmit,
                          obs::RequestStage::kDequeue),
          sub.ctx.id);
    }
    const size_t served = chunk.size();
    ServeChunk(std::move(chunk));
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      serving_now_ -= served;
      if (admit_queue_.empty() && serving_now_ == 0) drain_cv_.notify_all();
    }
  }
}

void EdgeFleet::ServeChunk(std::vector<Submission> chunk) {
  // The span opens at the chunk's shared dequeue stamp so the per-request
  // flow steps (also stamped at dequeue) land inside the slice.
  const uint64_t dequeue_ns =
      chunk.empty() ? obs::RequestContext::NowNs()
                    : chunk.front().ctx.At(obs::RequestStage::kDequeue);
  obs::TraceSpan span("EdgeFleet::ServeChunk", dequeue_ns);
  // One deployment pinned for the whole chunk: all its requests share it,
  // so the combiner's same-deployment FIFO prefix rule stacks them into a
  // single batched forward (possibly merged with other callers' requests).
  std::shared_ptr<const Deployment> dep = CurrentDeployment();
  std::vector<PendingRequest> requests(chunk.size());
  std::vector<PendingRequest*> pointers;
  pointers.reserve(chunk.size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    Metrics().requests->Increment();
    requests[i].features = chunk[i].features;
    requests[i].deployment = dep;
    requests[i].ctx = &chunk[i].ctx;
    // No flow step here: the dequeue hop is already visible as this
    // ServeChunk slice (opened at the dequeue stamp) on the worker's track,
    // and the same worker emits the flow finish at publish. One marker per
    // thread role keeps the per-request trace cost inside the 2% budget.
    pointers.push_back(&requests[i]);
  }
  {
    obs::ScopedTimer classify_timer(Metrics().classify_us);
    EnqueueAndServe(pointers);
  }
  // Classification-only path: stats and last_prediction update. An
  // open-loop window has no position in the session's frame stream.
  for (size_t i = 0; i < chunk.size(); ++i) {
    Session& s = *sessions_[chunk[i].session];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.stream.EmitUnordered(requests[i].status.ok() ? &requests[i].prediction
                                                     : nullptr);
    }
    PublishObservability(chunk[i].ctx, requests[i], dep->version);
  }
}

// Stamps publish, records the five adjacent stage intervals (with the
// request id as the bucket exemplar), closes the trace flow, leaves a
// flight record, and feeds the SLO monitor. Runs outside the session mutex.
void EdgeFleet::PublishObservability(obs::RequestContext& ctx,
                                     const PendingRequest& request,
                                     uint64_t deployment_version) {
  using obs::RequestStage;
  ctx.Stamp(RequestStage::kPublish);
  const bool ok = request.status.ok();
  if (ok) {
    FleetMetrics& m = Metrics();
    m.stage_queue_us->Record(
        ctx.StageUs(RequestStage::kAdmit, RequestStage::kDequeue), ctx.id);
    m.stage_batch_wait_us->Record(
        ctx.StageUs(RequestStage::kDequeue, RequestStage::kEmbedStart),
        ctx.id);
    m.stage_embed_us->Record(
        ctx.StageUs(RequestStage::kEmbedStart, RequestStage::kEmbedEnd),
        ctx.id);
    m.stage_classify_us->Record(
        ctx.StageUs(RequestStage::kEmbedEnd, RequestStage::kClassifyEnd),
        ctx.id);
    m.stage_publish_us->Record(
        ctx.StageUs(RequestStage::kClassifyEnd, RequestStage::kPublish),
        ctx.id);
    m.e2e_us->Record(ctx.EndToEndUs(), ctx.id);
  }
  obs::TraceFlowEndAt(kRequestFlow, ctx.id,
                      ctx.At(RequestStage::kPublish));

  obs::FlightRecord record;
  record.id = ctx.id;
  record.session = ctx.session;
  record.batch_size = request.batch_size;
  record.deployment_version = deployment_version;
  record.outcome = ok ? obs::FlightRecord::Outcome::kOk
                      : obs::FlightRecord::Outcome::kError;
  record.stage_ns = ctx.stage_ns;
  Recorder(options_).Record(record);

  if (options_.slo_monitor != nullptr) {
    if (ok) {
      options_.slo_monitor->ObserveLatency(ctx.EndToEndUs());
    } else {
      options_.slo_monitor->ObserveError();
    }
  }
}

// -- Streaming ----------------------------------------------------------------

Result<std::optional<core::NamedPrediction>> EdgeFleet::PushFrame(
    size_t session, const sensors::Frame& frame) {
  if (session >= sessions_.size()) {
    return Status::InvalidArgument("no such session: " +
                                   std::to_string(session));
  }
  Session& s = *sessions_[session];
  std::lock_guard<std::mutex> lock(s.mu);
  std::shared_ptr<const Deployment> dep = CurrentDeployment();
  if (s.deployment_version != dep->version) {
    // A promotion landed since this session's last frame: a half-filled
    // window would straddle two models.
    s.stream.ResetContext();
    s.deployment_version = dep->version;
    Metrics().session_resets->Increment();
  }
  const preprocess::Pipeline& pipeline = dep->model.pipeline();
  if (!s.stream.PushFrame(frame, pipeline)) {
    return std::optional<core::NamedPrediction>{};
  }

  // Featurization runs right here on the session thread, in the session's
  // own featurizer. Only the backbone forward goes through the batcher.
  MAGNETO_ASSIGN_OR_RETURN(const Matrix* features,
                           s.stream.FinishWindow(pipeline));
  PendingRequest req;
  req.features = {features->RowPtr(0), features->cols()};
  req.deployment = std::move(dep);
  {
    obs::ScopedTimer classify_timer(Metrics().classify_us);
    Metrics().requests->Increment();
    EnqueueAndServe({&req});
  }
  MAGNETO_RETURN_IF_ERROR(req.status);
  return std::optional<core::NamedPrediction>(
      s.stream.Emit(std::move(req.prediction)));
}

// -- Introspection ------------------------------------------------------------

FleetSessionStats EdgeFleet::session_stats(size_t session) const {
  const Session& s = *sessions_[session];
  std::lock_guard<std::mutex> lock(s.mu);
  return {s.stream.stats(), s.submitted, s.rejected};
}

std::optional<core::NamedPrediction> EdgeFleet::last_prediction(
    size_t session) const {
  const Session& s = *sessions_[session];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stream.last_prediction();
}

}  // namespace magneto::platform
