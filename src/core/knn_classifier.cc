#include "core/knn_classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/parallel.h"

namespace magneto::core {

Result<KnnClassifier> KnnClassifier::FromSupportSet(const SupportSet& support,
                                                    Embedder* embedder,
                                                    Options options) {
  if (embedder == nullptr) {
    return Status::InvalidArgument("embedder must not be null");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (support.NumClasses() == 0) {
    return Status::InvalidArgument("support set is empty");
  }

  KnnClassifier knn;
  knn.options_ = options;

  sensors::FeatureDataset all = support.AsDataset();
  const Matrix embeddings = embedder->Embed(all.ToMatrix());
  knn.labels_ = all.labels();
  knn.rows_ = ScanRows(embeddings);
  return knn;
}

Result<size_t> KnnClassifier::ScanTopK(const float* embedding, size_t n,
                                       size_t k, Scratch* scratch) const {
  if (scratch == nullptr) {
    return Status::InvalidArgument("scratch must not be null");
  }
  if (labels_.empty()) {
    return Status::FailedPrecondition("classifier has no exemplars");
  }
  if (n != rows_.dim()) {
    return Status::InvalidArgument("embedding dim " + std::to_string(n) +
                                   " != classifier dim " +
                                   std::to_string(rows_.dim()));
  }

  // Squared distances to every exemplar; ranking by squared distance is
  // order-identical (sqrt is monotone), so the single sqrt per reported
  // neighbour is deferred to the vote/margin computation in Classify.
  // Reusing the caller's scratch keeps the distance buffer's capacity across
  // calls without the hidden process-lifetime footprint of a
  // `static thread_local` buffer.
  const size_t count = labels_.size();
  std::vector<std::pair<float, uint32_t>>& dist = scratch->dist;
  dist.resize(count);
  // The store is fp32, so the query needs no int8 buffer.
  const ScanRows::Query query = rows_.Prepare(embedding, nullptr);
  ParallelFor(0, count, 2048, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      dist[i] = {static_cast<float>(rows_.SquaredDistance(query, i)),
                 static_cast<uint32_t>(i)};
    }
  });
  const size_t top = std::min(k, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + top, dist.end());
  return top;
}

Result<Prediction> KnnClassifier::Classify(const float* embedding, size_t n,
                                           Scratch* scratch) const {
  MAGNETO_ASSIGN_OR_RETURN(size_t k,
                           ScanTopK(embedding, n, options_.k, scratch));
  const std::vector<std::pair<float, uint32_t>>& dist = scratch->dist;

  std::map<sensors::ActivityId, double> votes;
  std::map<sensors::ActivityId, double> nearest;
  double total_vote = 0.0;
  for (size_t j = 0; j < k; ++j) {
    const auto& [d2, idx] = dist[j];
    const double d = std::sqrt(static_cast<double>(d2));
    const sensors::ActivityId label = labels_[idx];
    const double w = options_.distance_weighted ? 1.0 / (d + 1e-6) : 1.0;
    votes[label] += w;
    total_vote += w;
    auto it = nearest.find(label);
    if (it == nearest.end() || d < it->second) nearest[label] = d;
  }

  Prediction pred;
  double best = -1.0;
  double best_near = std::numeric_limits<double>::infinity();
  for (const auto& [label, vote] : votes) {
    // Equal vote mass is broken by the nearer nearest-exemplar, not by the
    // ordered-map iteration (which would always hand ties to the lowest
    // ActivityId regardless of geometry).
    const double near = nearest.find(label)->second;
    if (vote > best || (vote == best && near < best_near)) {
      best = vote;
      best_near = near;
      pred.activity = label;
    }
  }
  pred.distance = best_near;
  pred.confidence = total_vote > 0.0 ? best / total_vote : 0.0;
  return pred;
}

}  // namespace magneto::core
