#include "core/cloud_initializer.h"

#include "common/random.h"
#include "nn/sequential.h"

namespace magneto::core {

Result<ModelBundle> CloudInitializer::Initialize(
    const std::vector<sensors::LabeledRecording>& corpus,
    const sensors::ActivityRegistry& registry, CloudReport* report) const {
  if (corpus.empty()) {
    return Status::InvalidArgument("initial corpus is empty");
  }
  for (const sensors::LabeledRecording& rec : corpus) {
    if (!registry.Contains(rec.label)) {
      return Status::InvalidArgument("corpus label not in registry: " +
                                     std::to_string(rec.label));
    }
  }

  Rng rng(config_.seed);
  ModelBundle bundle;
  bundle.registry = registry;

  // (1) Preprocessing function, normaliser frozen on the corpus.
  bundle.pipeline = preprocess::Pipeline(config_.pipeline);
  MAGNETO_ASSIGN_OR_RETURN(sensors::FeatureDataset features,
                           bundle.pipeline.Fit(corpus));

  // (2) Siamese pre-training with contrastive loss.
  Rng net_rng = rng.Fork();
  bundle.backbone =
      nn::BuildMlp(features.dim(), config_.backbone_dims, &net_rng);
  learn::TrainOptions train = config_.train;
  train.distill_weight = 0.0;  // nothing to distil from
  learn::SiameseTrainer trainer(train);
  MAGNETO_ASSIGN_OR_RETURN(learn::TrainReport train_report,
                           trainer.Train(&bundle.backbone, features));

  // (3) Support-set selection per class. The temporary edge model gives the
  // herding strategy its embedding space.
  EdgeModel embedder(preprocess::Pipeline(config_.pipeline),
                     bundle.backbone.Clone(), NcmClassifier{}, registry);
  bundle.support = SupportSet(config_.support_capacity, config_.selection);
  Rng select_rng = rng.Fork();
  for (sensors::ActivityId id : features.Classes()) {
    MAGNETO_RETURN_IF_ERROR(bundle.support.SetClass(
        id, features.FilterByClass(id), &embedder, &select_rng));
  }

  // (4) NCM prototypes from the support exemplars.
  MAGNETO_ASSIGN_OR_RETURN(
      bundle.classifier, NcmClassifier::FromSupportSet(bundle.support,
                                                       &embedder));

  // (5) Done — the bundle is the transfer artifact.
  if (report != nullptr) {
    report->train = std::move(train_report);
    report->training_windows = features.size();
    report->bundle_bytes = bundle.SerializedBytes();
  }
  return bundle;
}

}  // namespace magneto::core
