#ifndef MAGNETO_CORE_KNN_CLASSIFIER_H_
#define MAGNETO_CORE_KNN_CLASSIFIER_H_

#include <vector>

#include "common/result.h"
#include "core/embedder.h"
#include "core/ncm_classifier.h"
#include "core/scan_rows.h"
#include "core/support_set.h"
#include "sensors/activity.h"

namespace magneto::core {

/// k-nearest-neighbour classifier over the embedded support exemplars — the
/// classical alternative the related work builds on (Shapelet features with
/// a kNN classifier, §2.2). Kept as a drop-in baseline against NCM:
/// it stores every exemplar embedding (k x the memory of NCM's single
/// prototype per class) and pays O(support size) per query instead of
/// O(classes); bench_pretraining reports the trade.
///
/// Concurrency contract: a built classifier is immutable, so `Classify` may
/// be called from any number of threads concurrently — each call either
/// brings its own `Scratch` or allocates a local one. (It used to keep a
/// `static thread_local` scratch, which retained the largest-ever allocation
/// per thread for the life of the process and was invisible shared state
/// across every classifier instance on that thread.)
class KnnClassifier {
 public:
  struct Options {
    size_t k = 5;
    /// Weight votes by 1/(distance + eps) instead of uniformly.
    bool distance_weighted = true;
  };

  /// Reusable per-query workspace. Passing the same instance across calls
  /// keeps the distance buffer's capacity, so it is not reallocated per
  /// query. `Classify` is still not allocation-free: its vote builds two
  /// small per-class `std::map`s per query. Distinct threads must use
  /// distinct instances. Predictions are byte-identical with or without one.
  struct Scratch {
    std::vector<std::pair<float, uint32_t>> dist;
  };

  /// Embeds every support exemplar through `embedder`.
  static Result<KnnClassifier> FromSupportSet(const SupportSet& support,
                                              Embedder* embedder,
                                              Options options);

  size_t num_examples() const { return labels_.size(); }
  size_t embedding_dim() const { return rows_.dim(); }
  const Options& options() const { return options_; }

  /// Bytes of stored fp32 exemplar embeddings.
  size_t MemoryBytes() const { return rows_.MemoryBytes(); }

  /// Classifies one embedding: majority (or distance-weighted) vote among
  /// the k nearest stored exemplars. `Prediction::distance` is the distance
  /// to the nearest exemplar of the winning class; `confidence` is the
  /// winning class's share of the vote mass. `scratch` (optional) is reused
  /// across calls to keep the distance buffer's capacity.
  Result<Prediction> Classify(const float* embedding, size_t n,
                              Scratch* scratch) const;
  Result<Prediction> Classify(const float* embedding, size_t n) const {
    Scratch local;
    return Classify(embedding, n, &local);
  }
  Result<Prediction> Classify(const std::vector<float>& embedding) const {
    return Classify(embedding.data(), embedding.size());
  }

 private:
  KnnClassifier() = default;

  /// Fills `scratch->dist` with one (squared distance, exemplar index) pair
  /// per exemplar and partial-sorts the best `k` to the front. Returns the
  /// number of ranked pairs (>= 1).
  Result<size_t> ScanTopK(const float* embedding, size_t n, size_t k,
                          Scratch* scratch) const;

  Options options_;
  ScanRows rows_;  ///< one fp32 row per exemplar
  std::vector<sensors::ActivityId> labels_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_KNN_CLASSIFIER_H_
