#include "core/ncm_classifier.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace magneto::core {
namespace {

class IdentityEmbedder : public Embedder {
 public:
  Matrix Embed(const Matrix& features) override { return features; }
  size_t embedding_dim() const override { return 2; }
};

NcmClassifier TwoClassClassifier() {
  NcmClassifier ncm;
  // Prototypes at (0,0) and (10,0).
  MAGNETO_CHECK(
      ncm.SetPrototypeFromEmbeddings(0, Matrix(1, 2, {0, 0})).ok());
  MAGNETO_CHECK(
      ncm.SetPrototypeFromEmbeddings(1, Matrix(1, 2, {10, 0})).ok());
  return ncm;
}

TEST(NcmClassifierTest, PrototypeIsClassMean) {
  NcmClassifier ncm;
  Matrix embeddings(3, 2, {0, 0, 2, 4, 4, 2});
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(7, embeddings).ok());
  auto proto = ncm.Prototype(7);
  ASSERT_TRUE(proto.ok());
  EXPECT_FLOAT_EQ(proto.value()[0], 2.0f);
  EXPECT_FLOAT_EQ(proto.value()[1], 2.0f);
}

TEST(NcmClassifierTest, ClassifiesByNearestPrototype) {
  NcmClassifier ncm = TwoClassClassifier();
  const std::vector<float> near0{1.0f, 1.0f};
  auto pred = ncm.Classify(near0);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred.value().activity, 0);
  EXPECT_NEAR(pred.value().distance, std::sqrt(2.0), 1e-5);

  const std::vector<float> near1{9.0f, -1.0f};
  EXPECT_EQ(ncm.Classify(near1).value().activity, 1);
}

TEST(NcmClassifierTest, ConfidenceReflectsMarginBetweenPrototypes) {
  NcmClassifier ncm = TwoClassClassifier();
  auto confident = ncm.Classify({0.0f, 0.0f}).value();
  auto borderline = ncm.Classify({5.0f, 0.0f}).value();
  EXPECT_GT(confident.confidence, 0.99);
  EXPECT_NEAR(borderline.confidence, 0.5, 1e-6);
  EXPECT_GE(confident.confidence, borderline.confidence);
}

TEST(NcmClassifierTest, DistancesSortedAscending) {
  NcmClassifier ncm = TwoClassClassifier();
  ASSERT_TRUE(
      ncm.SetPrototypeFromEmbeddings(2, Matrix(1, 2, {3, 0})).ok());
  const std::vector<float> q{1.0f, 0.0f};
  auto distances = ncm.Distances(q.data(), q.size()).value();
  ASSERT_EQ(distances.size(), 3u);
  EXPECT_EQ(distances[0].first, 0);
  EXPECT_EQ(distances[1].first, 2);
  EXPECT_EQ(distances[2].first, 1);
  EXPECT_LE(distances[0].second, distances[1].second);
  EXPECT_LE(distances[1].second, distances[2].second);
}

TEST(NcmClassifierTest, AddingClassNeedsNoRetraining) {
  // The property the paper builds on: a class is added by one prototype
  // insert, and existing decisions away from it are untouched.
  NcmClassifier ncm = TwoClassClassifier();
  const std::vector<float> q{1.0f, 1.0f};
  EXPECT_EQ(ncm.Classify(q).value().activity, 0);
  ASSERT_TRUE(
      ncm.SetPrototypeFromEmbeddings(5, Matrix(1, 2, {100, 100})).ok());
  EXPECT_EQ(ncm.num_classes(), 3u);
  EXPECT_EQ(ncm.Classify(q).value().activity, 0);  // unchanged
  EXPECT_EQ(ncm.Classify({99.0f, 99.0f}).value().activity, 5);
}

TEST(NcmClassifierTest, RemoveClass) {
  NcmClassifier ncm = TwoClassClassifier();
  ASSERT_TRUE(ncm.RemoveClass(1).ok());
  EXPECT_EQ(ncm.num_classes(), 1u);
  EXPECT_EQ(ncm.RemoveClass(1).code(), StatusCode::kNotFound);
  // Every query now lands on the remaining class.
  EXPECT_EQ(ncm.Classify({100.0f, 0.0f}).value().activity, 0);
}

TEST(NcmClassifierTest, DimMismatchRejected) {
  NcmClassifier ncm = TwoClassClassifier();
  EXPECT_EQ(ncm.Classify({1.0f}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      ncm.SetPrototypeFromEmbeddings(9, Matrix(1, 3, {1, 2, 3})).ok());
}

TEST(NcmClassifierTest, EmptyClassifierFailsClassification) {
  NcmClassifier ncm;
  EXPECT_EQ(ncm.Classify({1.0f, 2.0f}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NcmClassifierTest, EmptyEmbeddingBatchRejected) {
  NcmClassifier ncm;
  EXPECT_FALSE(ncm.SetPrototypeFromEmbeddings(0, Matrix(0, 2)).ok());
}

TEST(NcmClassifierTest, ZeroWidthEmbeddingsRejected) {
  // Regression: a zero-width prototype left the classifier dim at 0, so the
  // next class set a real dim over it and the scan read past its end.
  NcmClassifier ncm;
  EXPECT_EQ(ncm.SetPrototypeFromEmbeddings(0, Matrix(1, 0)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(1, Matrix(1, 2, {1, 2})).ok());
  EXPECT_EQ(ncm.num_classes(), 1u);
}

TEST(NcmClassifierTest, FromSupportSetBuildsAllPrototypes) {
  SupportSet support(4, SelectionStrategy::kRandom);
  Rng rng(1);
  sensors::FeatureDataset c0, c1;
  for (int i = 0; i < 6; ++i) {
    c0.Append({0.0f + i * 0.01f, 0.0f}, 0);
    c1.Append({8.0f + i * 0.01f, 0.0f}, 1);
  }
  ASSERT_TRUE(support.SetClass(0, c0, nullptr, &rng).ok());
  ASSERT_TRUE(support.SetClass(1, c1, nullptr, &rng).ok());

  IdentityEmbedder embedder;
  auto ncm = NcmClassifier::FromSupportSet(support, &embedder);
  ASSERT_TRUE(ncm.ok());
  EXPECT_EQ(ncm.value().num_classes(), 2u);
  EXPECT_EQ(ncm.value().Classify({0.5f, 0.0f}).value().activity, 0);
  EXPECT_EQ(ncm.value().Classify({7.5f, 0.0f}).value().activity, 1);
}

TEST(NcmClassifierTest, FromEmptySupportSetFails) {
  SupportSet support(4, SelectionStrategy::kRandom);
  IdentityEmbedder embedder;
  EXPECT_FALSE(NcmClassifier::FromSupportSet(support, &embedder).ok());
  EXPECT_FALSE(NcmClassifier::FromSupportSet(support, nullptr).ok());
}

TEST(NcmClassifierTest, RejectionThresholdYieldsUnknown) {
  NcmClassifier ncm = TwoClassClassifier();
  const std::vector<float> far{100.0f, 100.0f};  // ~134 from both prototypes
  auto accepted = ncm.Classify(far).value();
  EXPECT_NE(accepted.activity, kUnknownActivity);

  auto rejected =
      ncm.ClassifyWithRejection(far.data(), far.size(), 50.0).value();
  EXPECT_EQ(rejected.activity, kUnknownActivity);
  EXPECT_TRUE(rejected.is_unknown());
  // Distance of the would-be winner is preserved for display.
  EXPECT_NEAR(rejected.distance, accepted.distance, 1e-9);

  // Close queries are unaffected by the threshold.
  const std::vector<float> near{0.5f, 0.0f};
  auto kept = ncm.ClassifyWithRejection(near.data(), near.size(), 50.0)
                  .value();
  EXPECT_EQ(kept.activity, 0);
}

TEST(NcmClassifierTest, SerializationRoundTrip) {
  NcmClassifier ncm = TwoClassClassifier();
  BinaryWriter w;
  ncm.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = NcmClassifier::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_classes(), 2u);
  EXPECT_EQ(back.value().embedding_dim(), 2u);
  EXPECT_EQ(back.value().Classify({9.0f, 0.0f}).value().activity, 1);
}

TEST(NcmClassifierTest, DeserializeRejectsDimMismatch) {
  BinaryWriter w;
  w.WriteU64(3);  // dim 3
  w.WriteU64(1);  // one prototype
  w.WriteI64(0);
  w.WriteF32Vector(std::vector<float>{1.0f, 2.0f});  // but only 2 floats
  BinaryReader r(w.buffer());
  EXPECT_FALSE(NcmClassifier::Deserialize(&r).ok());
}

TEST(NcmClassifierTest, DeserializeRejectsZeroWidthPrototypes) {
  // Regression: dim 0 with classes stored zero-width prototypes, and a
  // later SetPrototypeFromEmbeddings set a real dim over them, so the scan
  // read past their end.
  BinaryWriter w;
  w.WriteU64(0);  // dim 0
  w.WriteU64(1);  // one prototype
  w.WriteI64(4);
  w.WriteF32Vector(std::vector<float>{});
  BinaryReader r(w.buffer());
  auto res = NcmClassifier::Deserialize(&r);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(NcmClassifierTest, DeserializeRejectsDuplicateClassId) {
  // Regression: a repeated class id used to be merged silently, the last
  // prototype winning.
  BinaryWriter w;
  w.WriteU64(2);
  w.WriteU64(2);
  w.WriteI64(3);
  w.WriteF32Vector(std::vector<float>{1.0f, 2.0f});
  w.WriteI64(3);
  w.WriteF32Vector(std::vector<float>{5.0f, 6.0f});
  BinaryReader r(w.buffer());
  auto res = NcmClassifier::Deserialize(&r);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(NcmClassifierTest, DeserializeEmptyZeroWidthIsValid) {
  // A default-constructed classifier serializes as dim 0 with no classes;
  // that image must still load.
  BinaryWriter w;
  NcmClassifier().Serialize(&w);
  BinaryReader r(w.buffer());
  auto res = NcmClassifier::Deserialize(&r);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().num_classes(), 0u);
}

TEST(NcmClassifierTest, ScratchReuseIsByteIdentical) {
  // A reused caller-provided scratch — even one carrying stale capacity from
  // a larger classifier — must produce byte-identical predictions to the
  // scratch-free overload.
  NcmClassifier small = TwoClassClassifier();
  NcmClassifier big;
  for (int c = 0; c < 12; ++c) {
    MAGNETO_CHECK(big.SetPrototypeFromEmbeddings(
                         c, Matrix(1, 2, {static_cast<float>(5 * c), 1.0f}))
                      .ok());
  }
  NcmClassifier::Scratch scratch;
  for (float x : {0.0f, 3.0f, 5.1f, 27.0f, 55.0f}) {
    const std::vector<float> q{x, 0.5f};
    Prediction big_pred = big.Classify(q.data(), q.size(), &scratch).value();
    Prediction big_ref = big.Classify(q).value();
    Prediction small_pred =
        small.Classify(q.data(), q.size(), &scratch).value();
    Prediction small_ref = small.Classify(q).value();
    EXPECT_EQ(std::memcmp(&big_pred, &big_ref, sizeof(Prediction)), 0)
        << "big, x=" << x;
    EXPECT_EQ(std::memcmp(&small_pred, &small_ref, sizeof(Prediction)), 0)
        << "small, x=" << x;
    Prediction rej_pred =
        big.ClassifyWithRejection(q.data(), q.size(), 2.0, &scratch).value();
    Prediction rej_ref =
        big.ClassifyWithRejection(q.data(), q.size(), 2.0).value();
    EXPECT_EQ(std::memcmp(&rej_pred, &rej_ref, sizeof(Prediction)), 0)
        << "reject, x=" << x;
  }
}

TEST(NcmClassifierTest, NonFinitePrototypeRanksLast) {
  // Regression: a NaN prototype distance used to reach std::sort's
  // comparator, which is UB (NaN breaks strict weak ordering). Sanitized to
  // +inf it sorts last and can never win.
  NcmClassifier ncm;
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(
                     0, Matrix(1, 2,
                               {std::numeric_limits<float>::quiet_NaN(), 0}))
                  .ok());
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(1, Matrix(1, 2, {5, 0})).ok());
  auto pred = ncm.Classify({5.0f, 0.0f}).value();
  EXPECT_EQ(pred.activity, 1);
  EXPECT_TRUE(std::isfinite(pred.distance));
  const std::vector<float> q{5.0f, 0.0f};
  auto all = ncm.Distances(q.data(), q.size()).value();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].first, 0);  // poisoned prototype sorted last
  EXPECT_TRUE(std::isinf(all[1].second));
}

// `classes` prototypes on a widely spaced 2-D grid.
NcmClassifier GridNcm(int classes) {
  NcmClassifier ncm;
  for (int c = 0; c < classes; ++c) {
    const float cx = static_cast<float>(c % 8) * 20.0f;
    const float cy = static_cast<float>(c / 8) * 20.0f;
    MAGNETO_CHECK(
        ncm.SetPrototypeFromEmbeddings(c, Matrix(1, 2, {cx, cy})).ok());
  }
  return ncm;
}

TEST(NcmClassifierTest, DistancesAlwaysCoversEveryPrototype) {
  // `Distances` promises a distance to *every* prototype.
  NcmClassifier ncm = GridNcm(32);
  const std::vector<float> q{0.0f, 0.0f};
  auto all = ncm.Distances(q.data(), q.size()).value();
  EXPECT_EQ(all.size(), 32u);
}

TEST(NcmClassifierTest, ConcurrentClassifyWithPerThreadScratch) {
  // Classify is read-only over the shared prototype store: concurrent calls
  // with distinct scratches must agree with serial answers (run under
  // -DMAGNETO_SANITIZE=thread by check.sh).
  NcmClassifier ncm = GridNcm(32);
  std::vector<std::vector<float>> queries;
  for (int c = 0; c < 8; ++c) {
    queries.push_back({static_cast<float>(c % 8) * 20.0f + 0.5f,
                       static_cast<float>(c / 8) * 20.0f - 0.5f});
  }
  std::vector<Prediction> expected;
  for (const auto& q : queries) expected.push_back(ncm.Classify(q).value());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      NcmClassifier::Scratch scratch;
      for (int rep = 0; rep < 50; ++rep) {
        const size_t qi = static_cast<size_t>((t + rep) % queries.size());
        auto pred =
            ncm.Classify(queries[qi].data(), queries[qi].size(), &scratch);
        if (!pred.ok() || std::memcmp(&pred.value(), &expected[qi],
                                      sizeof(Prediction)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Prototypes for the scan digest, inserted in non-ascending id order: exact
// lattice points (class 8 repeats class 0's, so their distances tie
// exactly), Gaussian means, and means carrying NaN, +inf and -inf. One class
// is then overwritten and one removed.
NcmClassifier DigestNcm(size_t dim, Rng* rng) {
  const std::vector<sensors::ActivityId> ids = {40, 2, 13, 7,  11, 99,
                                                5,  23, 61, 17, 3,  8};
  NcmClassifier ncm;
  std::vector<float> lattice(dim);
  for (size_t c = 0; c < ids.size(); ++c) {
    const size_t n = 1 + c % 3;
    Matrix rows(n, dim);
    if (c % 4 == 0) {
      if (c != 8) {
        for (float& v : lattice) v = static_cast<float>(rng->UniformInt(-1, 1));
      }
      for (size_t i = 0; i < n; ++i) {
        std::copy(lattice.begin(), lattice.end(), rows.RowPtr(i));
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < dim; ++j) {
          rows(i, j) = static_cast<float>(rng->Normal(0.0, 1.0));
        }
        rows(i, 0) += 3.0f * static_cast<float>(c);
      }
      const size_t at = rng->Index(dim);
      if (c == 3) rows(0, at) = std::numeric_limits<float>::quiet_NaN();
      if (c == 7) rows(0, at) = std::numeric_limits<float>::infinity();
      if (c == 11) rows(0, at) = -std::numeric_limits<float>::infinity();
    }
    MAGNETO_CHECK(ncm.SetPrototypeFromEmbeddings(ids[c], rows).ok());
  }
  Matrix over(2, dim);
  for (size_t j = 0; j < dim; ++j) {
    over(0, j) = static_cast<float>(rng->Normal(0.0, 2.0));
    over(1, j) = static_cast<float>(rng->Normal(1.0, 2.0));
  }
  MAGNETO_CHECK(ncm.SetPrototypeFromEmbeddings(ids[1], over).ok());
  MAGNETO_CHECK(ncm.RemoveClass(ids[5]).ok());
  return ncm;
}

TEST(NcmClassifierTest, ScanDigestUnchanged) {
  // Golden bits of the prototype scan, captured once and never edited: a
  // change to the store, the distance or the sort that moves one bit of one
  // result fails here. FNV-1a (64-bit) over the serialized classifier and
  // the bytes of every Classify, ClassifyWithRejection and Distances result,
  // across dims 2, 32 and 128, with non-finite prototypes and queries and
  // exact lattice ties.
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  };
  for (size_t dim : {2u, 32u, 128u}) {
    Rng rng(90 + dim);
    const NcmClassifier ncm = DigestNcm(dim, &rng);
    ASSERT_EQ(ncm.num_classes(), 11u);
    BinaryWriter w;
    ncm.Serialize(&w);
    mix(w.buffer().data(), w.buffer().size());
    NcmClassifier::Scratch scratch;
    for (int q = 0; q < 12; ++q) {
      std::vector<float> x(dim);
      for (float& v : x) {
        v = q < 4 ? static_cast<float>(rng.UniformInt(-1, 1))
                  : static_cast<float>(rng.Normal(0.0, 1.5));
      }
      if (q >= 4 && q < 9) x[0] += 3.0f * static_cast<float>(q - 4);
      if (q == 10) x[0] = std::numeric_limits<float>::quiet_NaN();
      if (q == 11) x[dim - 1] = std::numeric_limits<float>::infinity();
      auto pred = ncm.Classify(x.data(), x.size(), &scratch);
      ASSERT_TRUE(pred.ok());
      mix(&pred.value(), sizeof(Prediction));
      auto rejected =
          ncm.ClassifyWithRejection(x.data(), x.size(), 4.0, &scratch);
      ASSERT_TRUE(rejected.ok());
      mix(&rejected.value(), sizeof(Prediction));
      auto all = ncm.Distances(x.data(), x.size());
      ASSERT_TRUE(all.ok());
      ASSERT_EQ(all.value().size(), ncm.num_classes());
      for (const auto& [id, d] : all.value()) {
        mix(&id, sizeof(id));
        mix(&d, sizeof(d));
      }
    }
  }
  EXPECT_EQ(h, 0x6fa8fe503e790a62ull);
}

}  // namespace
}  // namespace magneto::core
