#include "core/ann_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"

namespace magneto::core {
namespace {

/// `clusters` Gaussian blobs of `per_cluster` points in `dim` dimensions,
/// centers far apart relative to the blob radius.
Matrix MakeBlobs(size_t clusters, size_t per_cluster, size_t dim,
                 uint64_t seed, double spread = 0.05) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t j = 0; j < dim; ++j) {
      centers.At(c, j) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  Matrix data(clusters * per_cluster, dim);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        data.At(c * per_cluster + i, j) =
            centers.At(c, j) + static_cast<float>(rng.Normal(0.0, spread));
      }
    }
  }
  return data;
}

uint32_t ExactNearest(const Matrix& data, const float* q) {
  uint32_t best = 0;
  float best_d = SquaredL2(q, data.RowPtr(0), data.cols());
  for (size_t i = 1; i < data.rows(); ++i) {
    const float d = SquaredL2(q, data.RowPtr(i), data.cols());
    if (d < best_d) {
      best_d = d;
      best = static_cast<uint32_t>(i);
    }
  }
  return best;
}

TEST(AnnIndexTest, BuildRejectsEmptyInput) {
  AnnOptions options;
  EXPECT_FALSE(AnnIndex::Build(Matrix(), options).ok());
  EXPECT_FALSE(AnnIndex::Build(Matrix(0, 4), options).ok());
}

TEST(AnnIndexTest, AutoNlistIsAboutSqrtN) {
  Matrix data = MakeBlobs(10, 40, 8, /*seed=*/1);
  AnnOptions options;
  auto index = AnnIndex::Build(data, options).value();
  EXPECT_EQ(index.num_vectors(), 400u);
  EXPECT_EQ(index.num_lists(), 20u);  // sqrt(400)
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(AnnIndexTest, FullProbeCoversEveryVectorExactlyOnce) {
  Matrix data = MakeBlobs(8, 25, 6, /*seed=*/2);
  AnnOptions options;
  options.nlist = 16;
  options.nprobe = 16;  // probe everything
  auto index = AnnIndex::Build(data, options).value();
  AnnIndex::Scratch scratch;
  std::vector<uint32_t> candidates;
  index.AppendCandidates(data.RowPtr(0), &scratch, &candidates);
  ASSERT_EQ(candidates.size(), data.rows());
  std::sort(candidates.begin(), candidates.end());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i], static_cast<uint32_t>(i));
  }
}

TEST(AnnIndexTest, CandidatesContainTrueNearestOnClusteredData) {
  const size_t clusters = 20;
  Matrix data = MakeBlobs(clusters, 30, 8, /*seed=*/3);
  AnnOptions options;
  options.nlist = clusters;
  options.nprobe = 4;
  auto index = AnnIndex::Build(data, options).value();

  Rng rng(7);
  AnnIndex::Scratch scratch;
  std::vector<uint32_t> candidates;
  size_t hits = 0;
  const size_t trials = 100;
  for (size_t t = 0; t < trials; ++t) {
    // Perturb a stored point: its cluster is the true neighbourhood.
    const size_t i = rng.Index(data.rows());
    std::vector<float> q(data.RowPtr(i), data.RowPtr(i) + data.cols());
    for (float& v : q) v += static_cast<float>(rng.Normal(0.0, 0.02));
    candidates.clear();
    index.AppendCandidates(q.data(), &scratch, &candidates);
    const uint32_t truth = ExactNearest(data, q.data());
    if (std::find(candidates.begin(), candidates.end(), truth) !=
        candidates.end()) {
      ++hits;
    }
  }
  // Well-separated blobs: the probed cells should almost always contain the
  // true nearest neighbour.
  EXPECT_GE(hits, trials * 95 / 100);
}

TEST(AnnIndexTest, DeterministicAcrossThreadCounts) {
  Matrix data = MakeBlobs(12, 40, 10, /*seed=*/4);
  AnnOptions options;
  options.nprobe = 3;

  std::vector<std::vector<uint32_t>> per_thread_results;
  for (size_t threads : {1u, 4u, 8u}) {
    SetParallelThreads(threads);
    auto index = AnnIndex::Build(data, options).value();
    AnnIndex::Scratch scratch;
    std::vector<uint32_t> flat;
    for (size_t i = 0; i < data.rows(); i += 17) {
      index.AppendCandidates(data.RowPtr(i), &scratch, &flat);
      flat.push_back(0xffffffffu);  // query separator
    }
    per_thread_results.push_back(std::move(flat));
  }
  SetParallelThreads(0);
  EXPECT_EQ(per_thread_results[0], per_thread_results[1]);
  EXPECT_EQ(per_thread_results[0], per_thread_results[2]);
}

TEST(AnnIndexTest, RebuildIsBitIdentical) {
  Matrix data = MakeBlobs(10, 30, 8, /*seed=*/5);
  AnnOptions options;
  auto a = AnnIndex::Build(data, options).value();
  auto b = AnnIndex::Build(data, options).value();
  AnnIndex::Scratch scratch;
  std::vector<uint32_t> ca, cb;
  for (size_t i = 0; i < data.rows(); i += 11) {
    a.AppendCandidates(data.RowPtr(i), &scratch, &ca);
    b.AppendCandidates(data.RowPtr(i), &scratch, &cb);
  }
  EXPECT_EQ(ca, cb);
}

TEST(AnnIndexTest, NonFiniteVectorsDoNotPoisonProbing) {
  Matrix data = MakeBlobs(6, 20, 4, /*seed=*/9);
  data.At(3, 0) = std::numeric_limits<float>::quiet_NaN();
  data.At(17, 1) = std::numeric_limits<float>::infinity();
  AnnOptions options;
  options.nprobe = 2;
  auto index = AnnIndex::Build(data, options).value();
  AnnIndex::Scratch scratch;
  std::vector<uint32_t> candidates;
  std::vector<float> q(4, std::numeric_limits<float>::quiet_NaN());
  index.AppendCandidates(q.data(), &scratch, &candidates);
  EXPECT_GE(candidates.size(), 1u);  // sanitized distances still rank lists
}

TEST(AnnIndexTest, ConcurrentSearchWithPerThreadScratch) {
  // The index is immutable after Build: concurrent AppendCandidates with
  // distinct scratches must agree with the serial answers (run under TSan
  // via check.sh's ANN leg).
  Matrix data = MakeBlobs(8, 30, 8, /*seed=*/10);
  AnnOptions options;
  options.nprobe = 2;
  auto index = AnnIndex::Build(data, options).value();

  std::vector<std::vector<uint32_t>> expected(8);
  AnnIndex::Scratch scratch;
  for (size_t i = 0; i < 8; ++i) {
    index.AppendCandidates(data.RowPtr(i * 19), &scratch, &expected[i]);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      AnnIndex::Scratch local;
      std::vector<uint32_t> out;
      for (int rep = 0; rep < 50; ++rep) {
        const size_t i = static_cast<size_t>(rep) % 8;
        out.clear();
        index.AppendCandidates(data.RowPtr(i * 19), &local, &out);
        if (out != expected[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace magneto::core
