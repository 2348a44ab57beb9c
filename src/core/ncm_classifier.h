#ifndef MAGNETO_CORE_NCM_CLASSIFIER_H_
#define MAGNETO_CORE_NCM_CLASSIFIER_H_

#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "common/serial.h"
#include "core/embedder.h"
#include "core/support_set.h"
#include "sensors/activity.h"

namespace magneto::core {

/// Sentinel id for open-set rejection: "none of the known activities".
inline constexpr sensors::ActivityId kUnknownActivity = -1;

/// One inference outcome.
struct Prediction {
  sensors::ActivityId activity = kUnknownActivity;
  double distance = 0.0;    ///< Euclidean distance to the winning prototype
  double confidence = 0.0;  ///< softmax over negative distances
  bool is_unknown() const { return activity == kUnknownActivity; }
};

/// Nearest-class-mean classifier over the embedding space (§3.1).
///
/// The decisive property for MAGNETO: adding a class is *one mean
/// computation* — no output-layer surgery, no softmax retraining — which is
/// why the platform can learn user activities on-device in seconds. Each
/// prototype is the mean embedding of that class's support exemplars.
class NcmClassifier {
 public:
  /// Reusable per-query workspace that keeps the serving hot path
  /// allocation-free. Distinct threads must use distinct instances;
  /// predictions are byte-identical with or without one.
  struct Scratch {
    std::vector<std::pair<sensors::ActivityId, double>> dist;
  };

  NcmClassifier() = default;

  /// Builds/overwrites the prototype of one class from its embeddings
  /// (rows = exemplar embeddings).
  Status SetPrototypeFromEmbeddings(sensors::ActivityId id,
                                    const Matrix& embeddings);

  /// Builds all prototypes from a support set, embedding every exemplar
  /// through `embedder`. Clears previous prototypes.
  static Result<NcmClassifier> FromSupportSet(const SupportSet& support,
                                              Embedder* embedder);

  Status RemoveClass(sensors::ActivityId id);

  size_t num_classes() const { return ids_.size(); }
  size_t embedding_dim() const { return dim_; }
  bool HasClass(sensors::ActivityId id) const {
    size_t row = 0;
    return Locate(id, &row);
  }
  /// Class ids, ascending.
  std::vector<sensors::ActivityId> Classes() const { return ids_; }

  Result<std::vector<float>> Prototype(sensors::ActivityId id) const;

  /// Classifies one embedding (length must equal embedding_dim()).
  /// `scratch` is reused across calls to keep the query allocation-free;
  /// the scratch-free overloads allocate a local one.
  Result<Prediction> Classify(const float* embedding, size_t n,
                              Scratch* scratch) const;
  Result<Prediction> Classify(const float* embedding, size_t n) const {
    Scratch local;
    return Classify(embedding, n, &local);
  }
  Result<Prediction> Classify(const std::vector<float>& embedding) const {
    return Classify(embedding.data(), embedding.size());
  }

  /// Open-set variant: if the nearest prototype is farther than
  /// `reject_threshold`, the prediction is `kUnknownActivity` (the distance
  /// and confidence of the would-be winner are preserved for display).
  /// A practical threshold is a small multiple of the typical intra-class
  /// distance in the trained embedding — see `CalibrateRejectionThreshold`.
  Result<Prediction> ClassifyWithRejection(const float* embedding, size_t n,
                                           double reject_threshold,
                                           Scratch* scratch) const;
  Result<Prediction> ClassifyWithRejection(const float* embedding, size_t n,
                                           double reject_threshold) const {
    Scratch local;
    return ClassifyWithRejection(embedding, n, reject_threshold, &local);
  }

  /// Distance to every prototype, ascending by distance.
  Result<std::vector<std::pair<sensors::ActivityId, double>>> Distances(
      const float* embedding, size_t n) const;

  void Serialize(BinaryWriter* writer) const;
  static Result<NcmClassifier> Deserialize(BinaryReader* reader);

 private:
  /// True if `id` has a prototype; `*row` is its row, or the row it would
  /// be inserted at to keep `ids_` ascending.
  bool Locate(sensors::ActivityId id, size_t* row) const;

  /// Inserts `v` (length `dim_`) as prototype row `row` of class `id`.
  void InsertRow(size_t row, sensors::ActivityId id, const float* v);

  /// Squared distance from `x` (length `dim_`) to prototype row `r`: the
  /// float `SquaredL2`. Non-finite results map to +inf, since a NaN would
  /// break the strict weak ordering of the distance sort — UB, not just a
  /// bad ranking.
  double SquaredDistance(const float* x, size_t r) const;

  /// Exact full scan into `scratch->dist`, ascending by distance.
  Status DistancesInto(const float* embedding, size_t n,
                       Scratch* scratch) const;

  /// Prototypes in ascending class-id order: row r of `rows_` (row-major,
  /// `dim_` floats each) belongs to ids_[r]. Ascending order fixes both the
  /// `Serialize` bytes and the input order of the (unstable) distance sort.
  std::vector<sensors::ActivityId> ids_;
  size_t dim_ = 0;
  std::vector<float> rows_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_NCM_CLASSIFIER_H_
