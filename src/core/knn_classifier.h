#ifndef MAGNETO_CORE_KNN_CLASSIFIER_H_
#define MAGNETO_CORE_KNN_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/ann_index.h"
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
    /// Store the support embeddings as symmetric per-exemplar int8 instead
    /// of fp32 (4x less scan memory and bandwidth), scanned with the
    /// exact-rescale distance of `ScanRows`. Composes with
    /// `compress::QuantizeBackbone` for the fully quantized edge path.
    bool quantize_exemplars = false;
    /// Approximate support index (IVF-Flat). When `ann.enable` and the
    /// support set holds at least `ann.min_index_size` exemplars, queries
    /// scan only the probed lists' candidates; otherwise the exact linear
    /// scan runs unchanged. Distances always come from this classifier's own
    /// store, so ANN composes with `quantize_exemplars`.
    AnnOptions ann;
  };

  /// Reusable per-query workspace. Passing the same instance across calls
  /// keeps the hot path allocation-free; distinct threads must use distinct
  /// instances. Predictions are byte-identical with or without one.
  struct Scratch {
    std::vector<std::pair<float, uint32_t>> dist;
    std::vector<int8_t> q_query;  ///< int8 path: quantized query vector
    AnnIndex::Scratch ann;
    std::vector<uint32_t> candidates;  ///< ANN path: ids to rerank
  };

  /// Embeds every support exemplar through `embedder`.
  static Result<KnnClassifier> FromSupportSet(const SupportSet& support,
                                              Embedder* embedder,
                                              Options options);

  size_t num_examples() const { return labels_.size(); }
  size_t embedding_dim() const { return rows_.dim(); }
  const Options& options() const { return options_; }
  /// True when queries actually go through the ANN index (built at
  /// construction because `options().ann.enable` was set and the support
  /// size reached `ann.min_index_size`). False = exact scan.
  bool ann_active() const { return ann_index_ != nullptr; }

  /// Bytes of stored exemplar embeddings (int8 data + scales + norms when
  /// `quantize_exemplars` is set — the fp32 copy is dropped).
  size_t MemoryBytes() const { return rows_.MemoryBytes(); }

  /// Classifies one embedding: majority (or distance-weighted) vote among
  /// the k nearest stored exemplars. `Prediction::distance` is the distance
  /// to the nearest exemplar of the winning class; `confidence` is the
  /// winning class's share of the vote mass. `scratch` (optional) is reused
  /// across calls to keep the query allocation-free.
  Result<Prediction> Classify(const float* embedding, size_t n,
                              Scratch* scratch) const;
  Result<Prediction> Classify(const float* embedding, size_t n) const {
    Scratch local;
    return Classify(embedding, n, &local);
  }
  Result<Prediction> Classify(const std::vector<float>& embedding) const {
    return Classify(embedding.data(), embedding.size());
  }

  /// The `k` nearest stored exemplars as (squared distance, exemplar index)
  /// pairs, ascending. Under ANN the search is restricted to the probed
  /// candidates (exactly the pool `Classify` votes over) — which is what
  /// bench_ann measures recall against the exact scan with.
  Result<std::vector<std::pair<float, uint32_t>>> Neighbors(
      const float* embedding, size_t n, size_t k, Scratch* scratch) const;

  sensors::ActivityId label(size_t exemplar) const { return labels_[exemplar]; }

 private:
  KnnClassifier() = default;

  /// Fills `scratch->dist` with (squared distance, exemplar index) pairs —
  /// every exemplar on the exact path, the ANN candidates otherwise — and
  /// partial-sorts the best `k` to the front. Returns the number of ranked
  /// pairs (>= 1).
  Result<size_t> ScanTopK(const float* embedding, size_t n, size_t k,
                          Scratch* scratch) const;

  Options options_;
  ScanRows rows_;  ///< one row per exemplar, fp32 or int8
  std::vector<sensors::ActivityId> labels_;
  /// Immutable once built; shared so copies stay cheap and identical.
  std::shared_ptr<const AnnIndex> ann_index_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_KNN_CLASSIFIER_H_
