#include "core/edge_model.h"

#include <algorithm>

#include "common/math_utils.h"

namespace magneto::core {

EdgeModel::EdgeModel(preprocess::Pipeline pipeline, nn::Sequential backbone,
                     NcmClassifier classifier,
                     sensors::ActivityRegistry registry)
    : pipeline_(std::move(pipeline)),
      backbone_(std::move(backbone)),
      classifier_(std::move(classifier)),
      registry_(std::move(registry)) {}

Matrix EdgeModel::Embed(const Matrix& features) {
  return backbone_.Forward(features, &embed_ws_);
}

size_t EdgeModel::embedding_dim() const {
  size_t dim = pipeline_.feature_dim();
  for (size_t i = 0; i < backbone_.num_layers(); ++i) {
    dim = backbone_.layer(i).output_dim(dim);
  }
  return dim;
}

NamedPrediction EdgeModel::WithName(const Prediction& prediction) const {
  NamedPrediction named;
  named.prediction = prediction;
  if (prediction.is_unknown()) {
    named.name = "Unknown";
    return named;
  }
  auto name = registry_.NameOf(prediction.activity);
  named.name = name.ok() ? name.value()
                         : ("#" + std::to_string(prediction.activity));
  return named;
}

Result<NamedPrediction> EdgeModel::InferFeatures(
    const std::vector<float>& features) {
  features_.ResetForOverwrite(1, features.size());
  std::copy(features.begin(), features.end(), features_.data());
  return InferRow(features_, &embed_ws_, &classify_scratch_);
}

Result<NamedPrediction> EdgeModel::InferFeatures(
    const std::vector<float>& features,
    nn::ForwardWorkspace* workspace) const {
  NcmClassifier::Scratch local;
  return InferFeatures(features, workspace, &local);
}

Result<NamedPrediction> EdgeModel::InferFeatures(
    const std::vector<float>& features, nn::ForwardWorkspace* workspace,
    NcmClassifier::Scratch* scratch) const {
  return InferRow(Matrix(1, features.size(), features), workspace, scratch);
}

Result<NamedPrediction> EdgeModel::InferRow(
    const Matrix& features, nn::ForwardWorkspace* workspace,
    NcmClassifier::Scratch* scratch) const {
  const size_t expected = backbone_.InputDim();
  if (expected > 0 && features.cols() != expected) {
    return Status::InvalidArgument(
        "feature vector has dim " + std::to_string(features.cols()) +
        ", backbone expects " + std::to_string(expected));
  }
  const Matrix& emb = backbone_.Forward(features, workspace);
  return ClassifyEmbedding(emb.RowPtr(0), emb.cols(), scratch);
}

Result<NamedPrediction> EdgeModel::ClassifyEmbedding(
    const float* embedding, size_t dim,
    NcmClassifier::Scratch* scratch) const {
  Result<Prediction> pred =
      rejection_threshold_ > 0.0
          ? classifier_.ClassifyWithRejection(embedding, dim,
                                              rejection_threshold_, scratch)
          : classifier_.Classify(embedding, dim, scratch);
  if (!pred.ok()) return pred.status();
  return WithName(pred.value());
}

Result<NamedPrediction> EdgeModel::InferWindow(const Matrix& raw_window) {
  MAGNETO_RETURN_IF_ERROR(
      pipeline_.ProcessWindow(raw_window, &featurizer_, &features_));
  return InferRow(features_, &embed_ws_, &classify_scratch_);
}

Result<NamedPrediction> EdgeModel::InferFeatureRow(const Matrix& features) {
  return InferRow(features, &embed_ws_, &classify_scratch_);
}

Result<std::vector<NamedPrediction>> EdgeModel::InferRecording(
    const sensors::Recording& recording) {
  MAGNETO_ASSIGN_OR_RETURN(std::vector<std::vector<float>> windows,
                           pipeline_.Process(recording));
  std::vector<NamedPrediction> out;
  out.reserve(windows.size());
  for (const std::vector<float>& features : windows) {
    MAGNETO_ASSIGN_OR_RETURN(NamedPrediction pred, InferFeatures(features));
    out.push_back(std::move(pred));
  }
  return out;
}

Result<std::vector<std::pair<sensors::ActivityId, sensors::ActivityId>>>
EdgeModel::Predict(const sensors::FeatureDataset& data) {
  std::vector<std::pair<sensors::ActivityId, sensors::ActivityId>> out;
  out.reserve(data.size());
  if (data.empty()) return out;
  Matrix embeddings = Embed(data.ToMatrix());
  for (size_t i = 0; i < data.size(); ++i) {
    MAGNETO_ASSIGN_OR_RETURN(
        Prediction pred,
        classifier_.Classify(embeddings.RowPtr(i), embeddings.cols(),
                             &classify_scratch_));
    out.emplace_back(data.Label(i), pred.activity);
  }
  return out;
}

Status EdgeModel::RebuildPrototypes(const SupportSet& support) {
  MAGNETO_ASSIGN_OR_RETURN(classifier_,
                           NcmClassifier::FromSupportSet(support, this));
  return Status::Ok();
}

EdgeModel::Snapshot EdgeModel::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.backbone = backbone_.Clone();
  snapshot.classifier = classifier_;
  snapshot.registry = registry_;
  snapshot.rejection_threshold = rejection_threshold_;
  return snapshot;
}

void EdgeModel::Restore(Snapshot&& snapshot) {
  backbone_ = std::move(snapshot.backbone);
  classifier_ = std::move(snapshot.classifier);
  registry_ = std::move(snapshot.registry);
  rejection_threshold_ = snapshot.rejection_threshold;
}

size_t EdgeModel::BackboneBytes() const {
  return backbone_.NumParameters() * sizeof(float);
}

Result<double> CalibrateRejectionThreshold(
    EdgeModel* model, const std::vector<sensors::Recording>& recordings,
    double percentile, double headroom) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  if (percentile < 0.0 || percentile > 1.0) {
    return Status::InvalidArgument("percentile must be in [0, 1]");
  }
  if (headroom <= 0.0) {
    return Status::InvalidArgument("headroom must be positive");
  }
  // Distances must be measured with rejection off.
  const double saved_threshold = model->rejection_threshold();
  model->set_rejection_threshold(0.0);
  std::vector<float> distances;
  for (const sensors::Recording& rec : recordings) {
    auto preds = model->InferRecording(rec);
    if (!preds.ok()) {
      model->set_rejection_threshold(saved_threshold);
      return preds.status();
    }
    for (const NamedPrediction& p : preds.value()) {
      distances.push_back(static_cast<float>(p.prediction.distance));
    }
  }
  model->set_rejection_threshold(saved_threshold);
  if (distances.empty()) {
    return Status::InvalidArgument(
        "recordings yielded no complete windows to calibrate on");
  }
  return headroom * stats::Quantile(std::move(distances), percentile);
}

}  // namespace magneto::core
