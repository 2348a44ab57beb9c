#include "core/ann_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace magneto::core {

namespace {

struct AnnMetrics {
  obs::Counter* probes = obs::Registry::Global().GetCounter("ann.probes");
  obs::Counter* rebuilds = obs::Registry::Global().GetCounter("ann.rebuilds");
  obs::Gauge* scanned_fraction =
      obs::Registry::Global().GetGauge("ann.scanned_fraction");
};

AnnMetrics& Metrics() {
  static AnnMetrics* metrics = new AnnMetrics;
  return *metrics;
}

float Sanitize(float d) {
  return std::isfinite(d) ? d : std::numeric_limits<float>::infinity();
}

/// Deterministic Lloyd k-means over `data` (rows x dim) with `k` centroids.
/// The assignment step is per-point independent (safe under ParallelFor at
/// any thread count); the update step accumulates in fixed point order.
/// Ties in the assignment break toward the lower centroid id. Returns the
/// final assignment; `centroids` holds the trained means.
std::vector<uint32_t> KMeans(const Matrix& data, size_t k, size_t iters,
                             uint64_t seed, Matrix* centroids) {
  const size_t n = data.rows();
  const size_t dim = data.cols();
  Rng rng(seed);
  std::vector<size_t> init = rng.SampleWithoutReplacement(n, k);
  std::sort(init.begin(), init.end());
  *centroids = Matrix(k, dim);
  for (size_t c = 0; c < k; ++c) {
    std::memcpy(centroids->RowPtr(c), data.RowPtr(init[c]),
                dim * sizeof(float));
  }

  std::vector<uint32_t> assign(n, 0);
  const auto assign_all = [&] {
    ParallelFor(0, n, 256, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        float best = std::numeric_limits<float>::infinity();
        uint32_t best_c = 0;
        for (size_t c = 0; c < k; ++c) {
          const float d =
              Sanitize(SquaredL2(data.RowPtr(i), centroids->RowPtr(c), dim));
          if (d < best) {
            best = d;
            best_c = static_cast<uint32_t>(c);
          }
        }
        assign[i] = best_c;
      }
    });
  };
  std::vector<double> sums(k * dim);
  std::vector<size_t> counts(k);
  for (size_t iter = 0; iter < iters; ++iter) {
    assign_all();
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const float* row = data.RowPtr(i);
      double* sum = sums.data() + assign[i] * dim;
      for (size_t j = 0; j < dim; ++j) sum[j] += row[j];
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cell keeps its old centroid
      float* row = centroids->RowPtr(c);
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < dim; ++j) {
        row[j] = static_cast<float>(sums[c * dim + j] * inv);
      }
    }
  }
  // Final assignment against the last centroid update, so the inverted
  // lists match the centroids a query will rank.
  assign_all();
  return assign;
}

}  // namespace

Result<AnnIndex> AnnIndex::Build(const Matrix& vectors,
                                 const AnnOptions& options) {
  const size_t n = vectors.rows();
  const size_t dim = vectors.cols();
  if (n == 0 || dim == 0) {
    return Status::InvalidArgument("ANN index needs a non-empty matrix");
  }

  AnnIndex index;
  index.options_ = options;
  index.n_ = n;
  index.dim_ = dim;
  index.nlist_ =
      options.nlist > 0
          ? std::min(options.nlist, n)
          : std::max<size_t>(
                1, static_cast<size_t>(std::lround(std::sqrt(
                       static_cast<double>(n)))));

  std::vector<uint32_t> assign =
      KMeans(vectors, index.nlist_, options.kmeans_iters, options.seed,
             &index.centroids_);

  // CSR inverted lists; filling in ascending vector id keeps each list's
  // members ascending, which makes candidate emission order canonical.
  index.list_offsets_.assign(index.nlist_ + 1, 0);
  for (uint32_t a : assign) ++index.list_offsets_[a + 1];
  for (size_t l = 0; l < index.nlist_; ++l) {
    index.list_offsets_[l + 1] += index.list_offsets_[l];
  }
  index.list_ids_.resize(n);
  std::vector<uint32_t> cursor(index.list_offsets_.begin(),
                               index.list_offsets_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    index.list_ids_[cursor[assign[i]]++] = static_cast<uint32_t>(i);
  }

  Metrics().rebuilds->Increment();
  return index;
}

size_t AnnIndex::MemoryBytes() const {
  return centroids_.size() * sizeof(float) +
         list_offsets_.size() * sizeof(uint32_t) +
         list_ids_.size() * sizeof(uint32_t);
}

void AnnIndex::AppendCandidates(const float* query, Scratch* scratch,
                                std::vector<uint32_t>* out) const {
  // Rank non-empty lists by centroid distance; (distance, id) pairs make
  // the order canonical under equal distances.
  std::vector<std::pair<float, uint32_t>>& cd = scratch->centroid_dist;
  cd.clear();
  for (size_t l = 0; l < nlist_; ++l) {
    if (list_offsets_[l + 1] == list_offsets_[l]) continue;
    cd.emplace_back(Sanitize(SquaredL2(query, centroids_.RowPtr(l), dim_)),
                    static_cast<uint32_t>(l));
  }
  const size_t probes = std::min(std::max<size_t>(1, options_.nprobe),
                                 cd.size());
  std::partial_sort(cd.begin(), cd.begin() + probes, cd.end());

  size_t scanned = 0;
  for (size_t p = 0; p < probes; ++p) {
    const uint32_t l = cd[p].second;
    out->insert(out->end(), list_ids_.begin() + list_offsets_[l],
                list_ids_.begin() + list_offsets_[l + 1]);
    scanned += list_offsets_[l + 1] - list_offsets_[l];
  }

  Metrics().probes->Increment(static_cast<uint64_t>(probes));
  Metrics().scanned_fraction->Set(
      n_ > 0 ? static_cast<double>(scanned) / static_cast<double>(n_) : 0.0);
}

}  // namespace magneto::core
