#include "core/incremental_learner.h"

#include <chrono>

#include "common/random.h"
#include "learn/ewc.h"
#include "nn/quantized_linear.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto::core {

namespace {

struct LearnerMetrics {
  obs::Counter* updates =
      obs::Registry::Global().GetCounter("learner.updates");
  obs::Histogram* update_ms = obs::Registry::Global().GetHistogram(
      "learner.update_ms", obs::LatencyBucketsMs());
  // Cost split of one incremental update: frozen-pipeline featurization of
  // the capture vs backbone retraining (distillation + contrastive) vs the
  // support-set / prototype refresh.
  obs::Histogram* preprocess_ms = obs::Registry::Global().GetHistogram(
      "learner.preprocess_ms", obs::LatencyBucketsMs());
  obs::Histogram* train_ms = obs::Registry::Global().GetHistogram(
      "learner.train_ms", obs::LatencyBucketsMs());
  obs::Histogram* support_ms = obs::Registry::Global().GetHistogram(
      "learner.support_ms", obs::LatencyBucketsMs());
};

LearnerMetrics& Metrics() {
  static LearnerMetrics* metrics = new LearnerMetrics;
  return *metrics;
}

using UpdateClock = std::chrono::steady_clock;

double MsSince(UpdateClock::time_point start) {
  return std::chrono::duration<double>(UpdateClock::now() - start).count() *
         1e3;
}

/// Test-only injection point: pretends the step that just ran failed.
Status CheckStep(const IncrementalOptions& options, UpdateStep step) {
  if (options.failure_hook) return options.failure_hook(step);
  return Status::Ok();
}

}  // namespace

Status CheckTrainable(const nn::Sequential& backbone) {
  for (size_t i = 0; i < backbone.num_layers(); ++i) {
    if (backbone.layer(i).type() ==
        static_cast<nn::LayerType>(nn::kQuantizedLinearTag)) {
      return Status::FailedPrecondition(
          "the backbone holds int8 layers, which are inference-only: no "
          "on-device updates");
    }
  }
  return Status::Ok();
}

Result<UpdateReport> IncrementalLearner::LearnNewActivity(
    EdgeModel* model, SupportSet* support, const std::string& name,
    const std::vector<sensors::Recording>& recordings) const {
  if (model == nullptr || support == nullptr) {
    return Status::InvalidArgument("model and support must not be null");
  }
  MAGNETO_RETURN_IF_ERROR(CheckTrainable(model->backbone()));
  UpdateTransaction tx(model, support);
  // Registration happens on the staged registry: a failure anywhere below
  // (or of the registration itself) drops the staged copy, the live
  // registry is never written, and the name stays free for a retry.
  MAGNETO_ASSIGN_OR_RETURN(sensors::ActivityId id, tx.registry().Register(name));
  return Update(&tx, model->pipeline(), &model->backbone(), id, recordings,
                /*is_new_class=*/true);
}

Result<UpdateReport> IncrementalLearner::Calibrate(
    EdgeModel* model, SupportSet* support, sensors::ActivityId id,
    const std::vector<sensors::Recording>& recordings) const {
  if (model == nullptr || support == nullptr) {
    return Status::InvalidArgument("model and support must not be null");
  }
  MAGNETO_RETURN_IF_ERROR(CheckTrainable(model->backbone()));
  if (!model->registry().Contains(id)) {
    return Status::NotFound("cannot calibrate unknown activity: " +
                            std::to_string(id));
  }
  if (!support->HasClass(id)) {
    return Status::FailedPrecondition(
        "activity has no support data to replace: " + std::to_string(id));
  }
  UpdateTransaction tx(model, support);
  return Update(&tx, model->pipeline(), &model->backbone(), id, recordings,
                /*is_new_class=*/false);
}

Result<UpdateReport> IncrementalLearner::Update(
    UpdateTransaction* tx, const preprocess::Pipeline& pipeline,
    nn::Sequential* teacher, sensors::ActivityId id,
    const std::vector<sensors::Recording>& recordings,
    bool is_new_class) const {
  obs::TraceSpan span("IncrementalLearner::Update");
  obs::ScopedTimer update_timer(Metrics().update_ms, /*scale=*/1e3);
  Metrics().updates->Increment();

  // (1) Preprocess the user's capture with the frozen pipeline.
  const auto preprocess_start = UpdateClock::now();
  std::vector<sensors::LabeledRecording> labeled;
  labeled.reserve(recordings.size());
  for (const sensors::Recording& rec : recordings) {
    labeled.push_back({rec, id});
  }
  MAGNETO_ASSIGN_OR_RETURN(sensors::FeatureDataset new_data,
                           pipeline.ProcessLabeled(labeled));
  Metrics().preprocess_ms->Record(MsSince(preprocess_start));
  if (new_data.empty()) {
    return Status::InvalidArgument(
        "recordings yielded no complete windows; record for longer");
  }
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kPreprocess));

  // (2) The *live* backbone — untouched until commit — is the frozen
  // distillation teacher; the staged clone is the student being retrained.
  // The distillation targets are the embeddings of the retained knowledge:
  // every support class except the one being (re)learned.
  const sensors::FeatureDataset retained = is_new_class
                                               ? tx->support().AsDataset()
                                               : tx->support().DatasetExcluding(id);

  // (3) Joint retraining on old exemplars + fresh windows (or, with
  // rehearsal disabled, the naive fine-tuning baseline).
  sensors::FeatureDataset train_data =
      options_.rehearse_support ? retained : sensors::FeatureDataset{};
  train_data.Merge(new_data);

  learn::TrainOptions train_options = options_.train;
  const bool distill =
      train_options.distill_weight > 0.0 && !retained.empty();
  const bool use_ewc = options_.ewc_weight > 0.0 && !retained.empty();
  train_options.ewc_weight = use_ewc ? options_.ewc_weight : 0.0;

  // EWC importance is measured on the *pre-update* weights against the
  // retained knowledge, before any weight moves — the staged backbone still
  // carries them at this point.
  std::unique_ptr<learn::EwcRegularizer> ewc;
  if (use_ewc) {
    learn::EwcRegularizer::Options ewc_options;
    ewc_options.margin = train_options.margin;
    ewc_options.seed = options_.seed ^ 0x5757;
    MAGNETO_ASSIGN_OR_RETURN(
        learn::EwcRegularizer estimated,
        learn::EwcRegularizer::Estimate(&tx->backbone(), retained,
                                        ewc_options));
    ewc = std::make_unique<learn::EwcRegularizer>(std::move(estimated));
  }

  learn::SiameseTrainer trainer(train_options);
  learn::TrainReport train_report;
  const auto train_start = UpdateClock::now();
  if (distill) {
    MAGNETO_ASSIGN_OR_RETURN(
        train_report,
        trainer.Train(&tx->backbone(), train_data, teacher, &retained,
                      ewc.get()));
  } else {
    MAGNETO_ASSIGN_OR_RETURN(
        train_report,
        trainer.Train(&tx->backbone(), train_data, nullptr, nullptr,
                      ewc.get()));
  }
  Metrics().train_ms->Record(MsSince(train_start));
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kTrain));

  // (4) Support-set update: fold in (or, for calibration, replace with) the
  // fresh windows, herded through the *updated* (staged) embedding space.
  const auto support_start = UpdateClock::now();
  Rng rng(options_.seed ^ static_cast<uint64_t>(id));
  MAGNETO_RETURN_IF_ERROR(
      tx->support().SetClass(id, new_data, &tx->embedder(), &rng));
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kSupportSet));

  // (5) All prototypes move when the backbone moves — rebuild every class.
  MAGNETO_RETURN_IF_ERROR(tx->RebuildPrototypes());
  Metrics().support_ms->Record(MsSince(support_start));
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kPrototypes));

  UpdateReport report;
  report.activity = id;
  report.new_windows = new_data.size();
  report.train = std::move(train_report);
  report.support_bytes = tx->support().MemoryBytes();

  // Every step succeeded against the staged state: install it with one
  // swap. Nothing before this line has written to the live deployment.
  tx->Commit();
  return report;
}

}  // namespace magneto::core
