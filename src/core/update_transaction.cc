#include "core/update_transaction.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace magneto::core {

namespace {

struct TransactionMetrics {
  obs::Counter* commits =
      obs::Registry::Global().GetCounter("learner.commits");
  obs::Counter* rollbacks =
      obs::Registry::Global().GetCounter("learner.rollbacks");
  obs::Gauge* staged_bytes =
      obs::Registry::Global().GetGauge("learner.staged_bytes");
};

TransactionMetrics& Metrics() {
  static TransactionMetrics* metrics = new TransactionMetrics;
  return *metrics;
}

}  // namespace

UpdateTransaction::UpdateTransaction(EdgeModel* model, SupportSet* support)
    : model_(model),
      live_support_(support),
      staged_(model->TakeSnapshot()),
      support_(*support),
      embedder_(&staged_.backbone) {
  Metrics().staged_bytes->Set(static_cast<double>(StagedBytes()));
}

UpdateTransaction::~UpdateTransaction() {
  if (!committed_) {
    Metrics().rollbacks->Increment();
    // A rollback is an anomaly worth a post-mortem: snapshot the recent
    // serving history (auto-dumps when a dump path is configured).
    obs::FlightRecorder::Global().NoteAnomaly("update_rollback");
  }
  Metrics().staged_bytes->Set(0.0);
}

size_t UpdateTransaction::StagedBytes() const {
  return staged_.backbone.NumParameters() * sizeof(float) +
         support_.MemoryBytes() +
         staged_.classifier.num_classes() *
             staged_.classifier.embedding_dim() * sizeof(float);
}

size_t UpdateTransaction::StagedEmbedder::embedding_dim() const {
  size_t dim = backbone_->InputDim();
  for (size_t i = 0; i < backbone_->num_layers(); ++i) {
    dim = backbone_->layer(i).output_dim(dim);
  }
  return dim;
}

Status UpdateTransaction::RebuildPrototypes() {
  MAGNETO_ASSIGN_OR_RETURN(
      staged_.classifier, NcmClassifier::FromSupportSet(support_, &embedder_));
  return Status::Ok();
}

void UpdateTransaction::Commit() {
  Metrics().staged_bytes->Set(static_cast<double>(StagedBytes()));
  model_->Restore(std::move(staged_));
  *live_support_ = std::move(support_);
  committed_ = true;
  Metrics().commits->Increment();
}

}  // namespace magneto::core
