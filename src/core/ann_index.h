#ifndef MAGNETO_CORE_ANN_INDEX_H_
#define MAGNETO_CORE_ANN_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace magneto::core {

/// Configuration of the approximate support-set index, carried by
/// `KnnClassifier::Options::ann`; `enable = false` (the default) keeps the
/// exact linear scan.
struct AnnOptions {
  /// Master switch. Even when enabled, the classifier falls back to the
  /// exact scan whenever the support set is smaller than `min_index_size`.
  bool enable = false;
  /// Number of inverted lists (k-means cells). 0 = auto: ~sqrt(n), the
  /// classic IVF balance between centroid-scan and list-scan cost.
  size_t nlist = 0;
  /// Lists probed per query. Higher = better recall, more scanned vectors.
  size_t nprobe = 8;
  /// Exact-scan fallback threshold: the index is only built once the
  /// vocabulary holds at least this many vectors. Below it a linear scan is
  /// both faster and exact, so approximation buys nothing.
  size_t min_index_size = 1024;
  /// Lloyd iterations for the coarse quantizer.
  size_t kmeans_iters = 10;
  /// Seed for the deterministic k-means init (sampling without
  /// replacement); results are bit-identical across MAGNETO_THREADS.
  uint64_t seed = 0x5eed;
};

/// IVF-Flat approximate-nearest-neighbour index over row-major fp32
/// vectors: a k-means coarse quantizer partitions the vectors into
/// `nlist` inverted lists; a query scans the `nprobe` nearest lists
/// instead of the whole set.
///
/// The index only *selects candidates* — it never computes the distances a
/// classifier acts on. Callers rerank the returned ids against their own
/// storage (fp32 rows or int8 codes), so ANN and exact scans differ only in
/// the candidate subset, never in distance arithmetic.
///
/// Determinism contract (matches the repo-wide rule): building twice with
/// the same data/options yields bit-identical indexes at any
/// `MAGNETO_THREADS` — the k-means assignment step is per-point independent
/// under `ParallelFor` and the centroid update accumulates in fixed point
/// order; queries probe lists in (distance, list id) order and emit
/// candidates in ascending id order within each list.
///
/// Concurrency contract: immutable after `Build`; any number of threads may
/// call `AppendCandidates` concurrently, each with its own `Scratch`.
class AnnIndex {
 public:
  /// Reusable per-query workspace (mirrors the classifiers' Scratch).
  struct Scratch {
    std::vector<std::pair<float, uint32_t>> centroid_dist;
  };

  /// Builds an index over `vectors` (rows = vectors). Fails on an empty
  /// matrix. `options.enable` is not consulted here — calling Build *is*
  /// the decision to index.
  static Result<AnnIndex> Build(const Matrix& vectors,
                                const AnnOptions& options);

  size_t num_vectors() const { return n_; }
  size_t num_lists() const { return nlist_; }
  size_t dim() const { return dim_; }
  const AnnOptions& options() const { return options_; }

  /// Index overhead in bytes (centroids + list structure); the vectors
  /// themselves stay with the caller.
  size_t MemoryBytes() const;

  /// Appends the candidate vector ids for `query` (length `dim()`) to
  /// `out`: the members of the `nprobe` nearest non-empty lists. Always
  /// appends at least one candidate. Records `ann.probes` and
  /// `ann.scanned_fraction`.
  void AppendCandidates(const float* query, Scratch* scratch,
                        std::vector<uint32_t>* out) const;

 private:
  AnnIndex() = default;

  AnnOptions options_;
  size_t n_ = 0;
  size_t dim_ = 0;
  size_t nlist_ = 0;
  Matrix centroids_;  ///< nlist x dim
  /// CSR layout: list l holds ids list_ids_[list_offsets_[l] ..
  /// list_offsets_[l+1]), ascending within each list.
  std::vector<uint32_t> list_offsets_;
  std::vector<uint32_t> list_ids_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_ANN_INDEX_H_
