#include "core/knn_classifier.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace magneto::core {
namespace {

class IdentityEmbedder : public Embedder {
 public:
  Matrix Embed(const Matrix& features) override { return features; }
  size_t embedding_dim() const override { return 2; }
};

SupportSet TwoClusterSupport() {
  SupportSet support(10, SelectionStrategy::kRandom);
  Rng rng(1);
  sensors::FeatureDataset c0, c1;
  for (int i = 0; i < 6; ++i) {
    c0.Append({0.0f + 0.1f * i, 0.0f}, 0);
    c1.Append({10.0f + 0.1f * i, 0.0f}, 1);
  }
  MAGNETO_CHECK(support.SetClass(0, c0, nullptr, &rng).ok());
  MAGNETO_CHECK(support.SetClass(1, c1, nullptr, &rng).ok());
  return support;
}

TEST(KnnClassifierTest, BuildsFromSupportSet) {
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, {});
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn.value().num_examples(), 12u);
  EXPECT_EQ(knn.value().embedding_dim(), 2u);
  EXPECT_EQ(knn.value().MemoryBytes(), 12u * 2u * sizeof(float));
}

TEST(KnnClassifierTest, ClassifiesByNeighbours) {
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, {}).value();
  EXPECT_EQ(knn.Classify({1.0f, 0.5f}).value().activity, 0);
  EXPECT_EQ(knn.Classify({9.5f, -0.5f}).value().activity, 1);
  EXPECT_GT(knn.Classify({0.2f, 0.0f}).value().confidence, 0.9);
}

TEST(KnnClassifierTest, KOneIsNearestNeighbour) {
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  KnnClassifier::Options options;
  options.k = 1;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, options)
                 .value();
  // Cluster 0 spans x in [0, 0.5], cluster 1 spans [10, 10.5]: x = 5.8 is
  // nearer to cluster 1's closest exemplar (4.2 vs 5.3).
  auto pred = knn.Classify({5.8f, 0.0f}).value();
  EXPECT_EQ(pred.activity, 1);
  EXPECT_DOUBLE_EQ(pred.confidence, 1.0);
}

TEST(KnnClassifierTest, UnweightedMajorityVote) {
  // 2 exemplars of class 0 close by, 3 of class 1 farther: with k=5
  // unweighted, class 1 wins on count; distance-weighted, class 0 wins.
  SupportSet support(10, SelectionStrategy::kRandom);
  Rng rng(2);
  sensors::FeatureDataset c0, c1;
  c0.Append({0.1f, 0.0f}, 0);
  c0.Append({-0.1f, 0.0f}, 0);
  c1.Append({3.0f, 0.0f}, 1);
  c1.Append({3.1f, 0.0f}, 1);
  c1.Append({3.2f, 0.0f}, 1);
  MAGNETO_CHECK(support.SetClass(0, c0, nullptr, &rng).ok());
  MAGNETO_CHECK(support.SetClass(1, c1, nullptr, &rng).ok());
  IdentityEmbedder embedder;

  KnnClassifier::Options unweighted;
  unweighted.k = 5;
  unweighted.distance_weighted = false;
  auto knn_u = KnnClassifier::FromSupportSet(support, &embedder, unweighted)
                   .value();
  EXPECT_EQ(knn_u.Classify({0.0f, 0.0f}).value().activity, 1);

  KnnClassifier::Options weighted;
  weighted.k = 5;
  weighted.distance_weighted = true;
  auto knn_w = KnnClassifier::FromSupportSet(support, &embedder, weighted)
                   .value();
  EXPECT_EQ(knn_w.Classify({0.0f, 0.0f}).value().activity, 0);
}

TEST(KnnClassifierTest, KLargerThanExemplarsIsClamped) {
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  KnnClassifier::Options options;
  options.k = 1000;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, options);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn.value().Classify({0.0f, 0.0f}).ok());
}

TEST(KnnClassifierTest, InvalidInputsRejected) {
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  EXPECT_FALSE(KnnClassifier::FromSupportSet(support, nullptr, {}).ok());
  KnnClassifier::Options zero_k;
  zero_k.k = 0;
  EXPECT_FALSE(KnnClassifier::FromSupportSet(support, &embedder, zero_k).ok());
  SupportSet empty(5, SelectionStrategy::kRandom);
  EXPECT_FALSE(KnnClassifier::FromSupportSet(empty, &embedder, {}).ok());

  auto knn = KnnClassifier::FromSupportSet(support, &embedder, {}).value();
  EXPECT_EQ(knn.Classify({1.0f}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KnnClassifierTest, ScratchReuseIsByteIdentical) {
  // Regression for the `static thread_local` scratch removal: a reused
  // caller-provided scratch — including one carrying stale capacity from a
  // *larger* classifier — must produce byte-identical predictions to the
  // scratch-free overload.
  SupportSet small = TwoClusterSupport();
  SupportSet big(100, SelectionStrategy::kRandom);
  {
    Rng rng(3);
    sensors::FeatureDataset c0, c1;
    for (int i = 0; i < 40; ++i) {
      c0.Append({0.01f * i, 0.0f}, 0);
      c1.Append({10.0f + 0.01f * i, 1.0f}, 1);
    }
    MAGNETO_CHECK(big.SetClass(0, c0, nullptr, &rng).ok());
    MAGNETO_CHECK(big.SetClass(1, c1, nullptr, &rng).ok());
  }
  IdentityEmbedder embedder;
  auto knn_small = KnnClassifier::FromSupportSet(small, &embedder, {}).value();
  auto knn_big = KnnClassifier::FromSupportSet(big, &embedder, {}).value();

  KnnClassifier::Scratch scratch;
  for (float x : {0.0f, 1.0f, 4.9f, 5.1f, 8.0f, 10.5f}) {
    const std::vector<float> q{x, 0.0f};
    // Interleave big and small so the scratch always arrives at the small
    // classifier oversized from the previous big query.
    Prediction big_pred =
        knn_big.Classify(q.data(), q.size(), &scratch).value();
    Prediction big_ref = knn_big.Classify(q).value();
    Prediction small_pred =
        knn_small.Classify(q.data(), q.size(), &scratch).value();
    Prediction small_ref = knn_small.Classify(q).value();
    EXPECT_EQ(std::memcmp(&big_pred, &big_ref, sizeof(Prediction)), 0)
        << "big, x=" << x;
    EXPECT_EQ(std::memcmp(&small_pred, &small_ref, sizeof(Prediction)), 0)
        << "small, x=" << x;
  }
  const std::vector<float> probe{1.0f, 0.0f};
  EXPECT_EQ(
      knn_small.Classify(probe.data(), probe.size(), nullptr).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(KnnClassifierTest, ConcurrentClassifyWithPerThreadScratch) {
  // The classifier is immutable after construction: concurrent Classify
  // calls with distinct scratches must agree with the serial answers. (Run
  // under -DMAGNETO_SANITIZE=thread this also proves there is no hidden
  // shared scratch left.)
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, {}).value();
  const std::vector<std::vector<float>> queries = {
      {0.0f, 0.0f}, {2.0f, 0.0f}, {8.0f, 0.0f}, {10.5f, 0.0f}};
  std::vector<Prediction> expected;
  for (const auto& q : queries) expected.push_back(knn.Classify(q).value());

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      KnnClassifier::Scratch scratch;
      for (int rep = 0; rep < 50; ++rep) {
        const size_t qi = static_cast<size_t>((t + rep) % queries.size());
        auto pred = knn.Classify(queries[qi].data(), queries[qi].size(),
                                 &scratch);
        if (!pred.ok() ||
            std::memcmp(&pred.value(), &expected[qi], sizeof(Prediction)) !=
                0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(KnnClassifierTest, AgreesWithNcmOnSeparatedClusters) {
  SupportSet support = TwoClusterSupport();
  IdentityEmbedder embedder;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, {}).value();
  auto ncm = NcmClassifier::FromSupportSet(support, &embedder).value();
  for (float x : {0.0f, 2.0f, 8.0f, 10.5f}) {
    const std::vector<float> q{x, 0.0f};
    EXPECT_EQ(knn.Classify(q).value().activity,
              ncm.Classify(q).value().activity)
        << "query x=" << x;
  }
}

TEST(KnnClassifierTest, VoteTieBreaksToNearerClass) {
  // Regression: on an exact vote tie the classifier used to pick the lowest
  // ActivityId (map iteration order), so a query whose *nearest* exemplar
  // belonged to the higher id was misclassified. Class 5 has the nearer
  // exemplar here; k=2 unweighted gives each class exactly one vote.
  SupportSet support(10, SelectionStrategy::kRandom);
  Rng rng(4);
  sensors::FeatureDataset far_class, near_class;
  far_class.Append({2.0f, 0.0f}, 3);
  near_class.Append({-1.0f, 0.0f}, 5);
  MAGNETO_CHECK(support.SetClass(3, far_class, nullptr, &rng).ok());
  MAGNETO_CHECK(support.SetClass(5, near_class, nullptr, &rng).ok());
  IdentityEmbedder embedder;
  KnnClassifier::Options options;
  options.k = 2;
  options.distance_weighted = false;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, options)
                 .value();
  auto pred = knn.Classify({0.0f, 0.0f}).value();
  EXPECT_EQ(pred.activity, 5);  // was 3 before the tie-break fix
  EXPECT_DOUBLE_EQ(pred.distance, 1.0);
}

TEST(KnnClassifierTest, NonFiniteExemplarRanksLast) {
  // Regression: a NaN embedding used to flow straight into the
  // partial_sort comparator, which is UB (NaN breaks strict weak
  // ordering). Non-finite distances are now sanitized to +inf, so the
  // poisoned exemplar simply never wins.
  SupportSet support(10, SelectionStrategy::kRandom);
  Rng rng(5);
  sensors::FeatureDataset poisoned, clean;
  poisoned.Append({std::numeric_limits<float>::quiet_NaN(), 0.0f}, 0);
  clean.Append({5.0f, 0.0f}, 1);
  MAGNETO_CHECK(support.SetClass(0, poisoned, nullptr, &rng).ok());
  MAGNETO_CHECK(support.SetClass(1, clean, nullptr, &rng).ok());
  IdentityEmbedder embedder;
  KnnClassifier::Options options;
  options.k = 1;
  auto knn = KnnClassifier::FromSupportSet(support, &embedder, options)
                 .value();
  auto pred = knn.Classify({5.0f, 0.0f}).value();
  EXPECT_EQ(pred.activity, 1);
  EXPECT_TRUE(std::isfinite(pred.distance));

  // A NaN *query* poisons every distance: everything sanitizes to +inf and
  // the scan still terminates with a well-defined (if meaningless) winner.
  const std::vector<float> nan_query{std::numeric_limits<float>::quiet_NaN(),
                                     0.0f};
  auto nan_pred = knn.Classify(nan_query);
  ASSERT_TRUE(nan_pred.ok());
  EXPECT_TRUE(std::isinf(nan_pred.value().distance));
}

// Identity embedder of any width, for the digest's wider embeddings.
class WideIdentityEmbedder : public Embedder {
 public:
  explicit WideIdentityEmbedder(size_t dim) : dim_(dim) {}
  Matrix Embed(const Matrix& features) override { return features; }
  size_t embedding_dim() const override { return dim_; }

 private:
  size_t dim_;
};

// Five classes of 520 exemplars (2,600 rows, more than one 2,048-row
// ParallelFor chunk). Every 50th row of a class carries a NaN, +inf or -inf
// coordinate; every 10th sits on a small integer lattice shared by all
// classes, so queries on that lattice meet exact distance ties within and
// across classes.
SupportSet DigestSupport(size_t dim, Rng* rng) {
  const std::vector<sensors::ActivityId> ids = {2, 7, 11, 13, 40};
  constexpr size_t kPerClass = 520;
  SupportSet support(kPerClass, SelectionStrategy::kRandom);
  for (size_t c = 0; c < ids.size(); ++c) {
    sensors::FeatureDataset data;
    for (size_t i = 0; i < kPerClass; ++i) {
      std::vector<float> row(dim);
      if (i % 10 == 3) {
        for (float& v : row) v = static_cast<float>(rng->UniformInt(-2, 2));
      } else {
        for (float& v : row) v = static_cast<float>(rng->Normal(0.0, 1.0));
        row[0] += 3.0f * static_cast<float>(c);
      }
      const size_t at = rng->Index(dim);
      if (i % 50 == 0) row[at] = std::numeric_limits<float>::quiet_NaN();
      if (i % 50 == 1) row[at] = std::numeric_limits<float>::infinity();
      if (i % 50 == 2) row[at] = -std::numeric_limits<float>::infinity();
      data.Append(row, ids[c]);
    }
    MAGNETO_CHECK(support.SetClass(ids[c], data, nullptr, rng).ok());
  }
  return support;
}

TEST(KnnClassifierTest, ExactScanDigestUnchanged) {
  // Golden bits of the exact scan, captured once and never edited: a change
  // to ScanTopK or the vote that moves one bit of one Prediction fails here.
  // FNV-1a (64-bit) over the bytes of every Prediction, across dims 2, 32
  // and 128, k = 1, 5 and more than the set holds, weighted and unweighted
  // votes, non-finite exemplars and queries, and lattice ties.
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t dim : {2u, 32u, 128u}) {
    Rng rng(80 + dim);
    const SupportSet support = DigestSupport(dim, &rng);
    ASSERT_GT(support.TotalSize(), 2048u);
    std::vector<std::vector<float>> queries;
    for (int q = 0; q < 12; ++q) {
      std::vector<float> x(dim);
      for (float& v : x) {
        v = q < 4 ? static_cast<float>(rng.UniformInt(-1, 1))
                  : static_cast<float>(rng.Normal(0.0, 1.5));
      }
      if (q >= 4 && q < 9) x[0] += 3.0f * static_cast<float>(q - 4);
      if (q == 10) x[0] = std::numeric_limits<float>::quiet_NaN();
      if (q == 11) x[dim - 1] = std::numeric_limits<float>::infinity();
      queries.push_back(std::move(x));
    }
    WideIdentityEmbedder embedder(dim);
    for (size_t k : {size_t{1}, size_t{5}, support.TotalSize() + 7}) {
      for (bool weighted : {false, true}) {
        KnnClassifier::Options options;
        options.k = k;
        options.distance_weighted = weighted;
        auto knn = KnnClassifier::FromSupportSet(support, &embedder, options);
        ASSERT_TRUE(knn.ok());
        KnnClassifier::Scratch scratch;
        for (const std::vector<float>& x : queries) {
          auto pred = knn.value().Classify(x.data(), x.size(), &scratch);
          ASSERT_TRUE(pred.ok());
          unsigned char bytes[sizeof(Prediction)];
          std::memcpy(bytes, &pred.value(), sizeof(Prediction));
          for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ull;
        }
      }
    }
  }
  EXPECT_EQ(h, 0xb9af5cbbb8e8f495ull);
}

}  // namespace
}  // namespace magneto::core
