#include "learn/siamese_trainer.h"

#include <chrono>
#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "learn/pair_sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto::learn {

namespace {

struct TrainerMetrics {
  obs::Counter* epochs = obs::Registry::Global().GetCounter("train.epochs");
  obs::Counter* steps = obs::Registry::Global().GetCounter("train.steps");
  obs::Histogram* epoch_ms = obs::Registry::Global().GetHistogram(
      "train.epoch_ms", obs::LatencyBucketsMs());
  // Where an epoch's time goes: pair sampling / batch assembly vs the
  // forward+backward passes vs the distillation term vs the optimizer.
  obs::Histogram* sample_ms = obs::Registry::Global().GetHistogram(
      "train.sample_ms", obs::LatencyBucketsMs());
  obs::Histogram* forward_backward_ms = obs::Registry::Global().GetHistogram(
      "train.forward_backward_ms", obs::LatencyBucketsMs());
  obs::Histogram* distill_ms = obs::Registry::Global().GetHistogram(
      "train.distill_ms", obs::LatencyBucketsMs());
  obs::Histogram* optimizer_ms = obs::Registry::Global().GetHistogram(
      "train.optimizer_ms", obs::LatencyBucketsMs());
  obs::Gauge* last_embedding_loss =
      obs::Registry::Global().GetGauge("train.last_embedding_loss");
  obs::Gauge* last_distill_loss =
      obs::Registry::Global().GetGauge("train.last_distill_loss");
};

TrainerMetrics& Metrics() {
  static TrainerMetrics* metrics = new TrainerMetrics;
  return *metrics;
}

using TrainClock = std::chrono::steady_clock;

double MsSince(TrainClock::time_point start) {
  return std::chrono::duration<double>(TrainClock::now() - start).count() *
         1e3;
}

// Rows per chunk when gathering batch rows: pure memcpy, so chunks need to
// be large for the dispatch to pay off.
constexpr size_t kGatherGrain = 256;

/// Copies the dataset rows at `indices` into a batch matrix.
Matrix GatherRows(const sensors::FeatureDataset& data,
                  const std::vector<size_t>& indices) {
  Matrix out(indices.size(), data.dim());
  ParallelFor(0, indices.size(), kGatherGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::memcpy(out.RowPtr(i), data.Row(indices[i]),
                  data.dim() * sizeof(float));
    }
  });
  return out;
}

Matrix GatherRows(const Matrix& source, const std::vector<size_t>& indices) {
  Matrix out(indices.size(), source.cols());
  ParallelFor(0, indices.size(), kGatherGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::memcpy(out.RowPtr(i), source.RowPtr(indices[i]),
                  source.cols() * sizeof(float));
    }
  });
  return out;
}

}  // namespace

Result<TrainReport> SiameseTrainer::Train(
    nn::Sequential* net, const sensors::FeatureDataset& data,
    const nn::Sequential* teacher,
    const sensors::FeatureDataset* distill_data,
    const EwcRegularizer* ewc) const {
  if (net == nullptr) return Status::InvalidArgument("net must not be null");
  if (data.empty()) return Status::InvalidArgument("training data is empty");
  if (data.size() < 2) {
    return Status::InvalidArgument(
        "training data has a single example; no pair of any kind exists");
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  if (options_.epochs == 0) {
    return Status::InvalidArgument("epochs must be > 0");
  }
  const bool distill = teacher != nullptr;
  if (distill && (distill_data == nullptr || distill_data->empty())) {
    return Status::InvalidArgument(
        "distillation requires non-empty distill_data");
  }
  if (distill && options_.distill_weight <= 0.0) {
    return Status::InvalidArgument(
        "teacher given but distill_weight is not positive");
  }
  if (options_.ewc_weight > 0.0 && ewc == nullptr) {
    return Status::InvalidArgument(
        "ewc_weight is positive but no EwcRegularizer was given");
  }

  // The teacher is frozen: compute its targets once. Forward is const, so
  // no defensive clone is needed — the teacher weights are never touched.
  Matrix teacher_targets;
  if (distill) {
    nn::ForwardWorkspace teacher_ws;
    teacher_targets = teacher->Forward(distill_data->ToMatrix(), &teacher_ws);
  }

  const size_t pairs_per_epoch = options_.pairs_per_epoch > 0
                                     ? options_.pairs_per_epoch
                                     : 2 * data.size();
  const size_t steps_per_epoch =
      std::max<size_t>(1, (pairs_per_epoch + options_.batch_size - 1) /
                              options_.batch_size);

  Rng rng(options_.seed);
  PairSampler sampler(data, rng.engine()());
  nn::Adam::Options adam;
  adam.learning_rate = options_.learning_rate;
  adam.weight_decay = options_.weight_decay;
  nn::Adam optimizer(net->Params(), net->Grads(), adam);

  // One workspace for the whole run: activation buffers reach their
  // high-water shape in the first step and are reused from then on.
  nn::ForwardWorkspace ws;

  obs::TraceSpan train_span("SiameseTrainer::Train");

  TrainReport report;
  report.epochs.reserve(options_.epochs);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("SiameseTrainer::Epoch");
    const auto epoch_start = TrainClock::now();
    // Per-phase wall time accumulated over the epoch's steps and recorded
    // once per epoch; per-step clock reads are cheap relative to a
    // forward/backward pass but per-step histogram records would not be.
    double sample_ms = 0.0;
    double forward_backward_ms = 0.0;
    double distill_ms = 0.0;
    double optimizer_ms = 0.0;
    EpochStats stats;
    for (size_t step = 0; step < steps_per_epoch; ++step) {
      optimizer.ZeroGrad();

      // --- embedding objective ---
      const auto sample_start = TrainClock::now();
      PairBatch batch = sampler.Sample(options_.batch_size);
      // One forward over [a; b] keeps the two branches weight-tied by
      // construction (a Siamese network is one network applied twice).
      Matrix stacked = VStack(batch.a, batch.b);
      sample_ms += MsSince(sample_start);
      const auto fb_start = TrainClock::now();
      const Matrix& emb = net->Forward(stacked, &ws, /*record=*/true);
      const size_t b = batch.size();
      Matrix emb_a = emb.RowSlice(0, b);
      Matrix emb_b = emb.RowSlice(b, 2 * b);
      nn::PairLossResult pair =
          nn::ContrastiveLoss(emb_a, emb_b, batch.same, options_.margin);
      net->Backward(VStack(pair.grad_a, pair.grad_b), &ws);
      forward_backward_ms += MsSince(fb_start);
      stats.embedding_loss += pair.loss;

      // --- distillation objective (anti-forgetting) ---
      if (distill) {
        const auto distill_start = TrainClock::now();
        const size_t rows =
            std::min(options_.batch_size, distill_data->size());
        std::vector<size_t> idx(rows);
        for (size_t i = 0; i < rows; ++i) {
          idx[i] = rng.Index(distill_data->size());
        }
        Matrix x = GatherRows(*distill_data, idx);
        Matrix targets = GatherRows(teacher_targets, idx);
        const Matrix& student = net->Forward(x, &ws, /*record=*/true);
        nn::LossResult dl =
            options_.distillation == DistillationKind::kCosine
                ? nn::DistillationCosine(student, targets)
                : nn::DistillationMse(student, targets);
        dl.grad.Scale(static_cast<float>(options_.distill_weight));
        net->Backward(dl.grad, &ws);
        stats.distill_loss += options_.distill_weight * dl.loss;
        distill_ms += MsSince(distill_start);
      }

      // --- EWC penalty (optional second anti-forgetting mechanism) ---
      if (ewc != nullptr && options_.ewc_weight > 0.0) {
        ewc->AccumulatePenaltyGradient(net, options_.ewc_weight);
      }

      const auto optimizer_start = TrainClock::now();
      optimizer.Step();
      optimizer_ms += MsSince(optimizer_start);
      Metrics().steps->Increment();
    }
    stats.embedding_loss /= static_cast<double>(steps_per_epoch);
    stats.distill_loss /= static_cast<double>(steps_per_epoch);
    report.epochs.push_back(stats);
    Metrics().epochs->Increment();
    Metrics().epoch_ms->Record(MsSince(epoch_start));
    Metrics().sample_ms->Record(sample_ms);
    Metrics().forward_backward_ms->Record(forward_backward_ms);
    if (distill) Metrics().distill_ms->Record(distill_ms);
    Metrics().optimizer_ms->Record(optimizer_ms);
    Metrics().last_embedding_loss->Set(stats.embedding_loss);
    Metrics().last_distill_loss->Set(stats.distill_loss);
  }
  return report;
}

}  // namespace magneto::learn
