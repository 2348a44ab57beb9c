#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace magneto {
namespace {

/// Restores the pool size after each test so thread-count experiments don't
/// leak into the rest of the suite.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ParallelThreads(); }
  void TearDown() override { SetParallelThreads(saved_threads_); }
  size_t saved_threads_ = 1;
};

TEST_F(ParallelTest, ZeroSizeRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(0, 0, 1, [&](size_t, size_t) { ++calls; });
  ParallelFor(5, 5, 4, [&](size_t, size_t) { ++calls; });
  ParallelFor(7, 3, 2, [&](size_t, size_t) { ++calls; });  // inverted range
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetParallelThreads(threads);
    constexpr size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(0, kN, 37, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST_F(ParallelTest, ChunkBoundariesDependOnlyOnRangeAndGrain) {
  auto boundaries = [](size_t threads) {
    SetParallelThreads(threads);
    std::vector<std::pair<size_t, size_t>> chunks(100);
    std::atomic<size_t> count{0};
    ParallelFor(3, 250, 17, [&](size_t lo, size_t hi) {
      chunks[count.fetch_add(1)] = {lo, hi};
    });
    chunks.resize(count.load());
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = boundaries(1);
  const auto threaded = boundaries(8);
  EXPECT_EQ(serial, threaded);
  // ceil((250 - 3) / 17) chunks, first starting at 3, last ending at 250.
  ASSERT_EQ(serial.size(), (250u - 3u + 16u) / 17u);
  EXPECT_EQ(serial.front().first, 3u);
  EXPECT_EQ(serial.back().second, 250u);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineAndCorrectly) {
  SetParallelThreads(4);
  constexpr size_t kOuter = 16, kInner = 64;
  std::vector<int> data(kOuter * kInner, 0);
  ParallelFor(0, kOuter, 1, [&](size_t lo, size_t hi) {
    for (size_t o = lo; o < hi; ++o) {
      // Nested call: must not deadlock, must still cover its range.
      ParallelFor(0, kInner, 8, [&](size_t ilo, size_t ihi) {
        for (size_t i = ilo; i < ihi; ++i) data[o * kInner + i] += 1;
      });
    }
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0),
            static_cast<int>(kOuter * kInner));
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetParallelThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 10,
                    [&](size_t lo, size_t) {
                      if (lo >= 50) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // Pool must still be usable after an exception.
    std::atomic<int> ok{0};
    ParallelFor(0, 10, 1, [&](size_t, size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 10);
  }
}

TEST_F(ParallelTest, SetThreadCountRoundTrips) {
  SetParallelThreads(3);
  EXPECT_EQ(ParallelThreads(), 3u);
  SetParallelThreads(1);
  EXPECT_EQ(ParallelThreads(), 1u);
  // Clamped to at least one lane (the caller).
  SetParallelThreads(0);
  EXPECT_EQ(ParallelThreads(), 1u);
}

TEST_F(ParallelTest, GrainZeroIsTreatedAsOne) {
  SetParallelThreads(2);
  std::vector<std::atomic<int>> hits(9);
  ParallelFor(0, 9, 0, [&](size_t lo, size_t hi) {
    EXPECT_EQ(hi, lo + 1);
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ManyConcurrentRegionsStayCoherent) {
  SetParallelThreads(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    ParallelFor(0, 64, 4, [&](size_t lo, size_t hi) {
      size_t local = 0;
      for (size_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

/// Runs one region over [0, n) in chunks of `grain` and expects every index
/// to have been visited exactly once.
void ExpectCoverage(size_t n, size_t grain) {
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

uint64_t Wakes() {
  return obs::Registry::Global().GetCounter("parallel.wakes")->value();
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->value();
}

TEST_F(ParallelTest, ChunkCountersAddUp) {
  // Every chunk is attributed once: to the caller that ran it, or to the
  // pool worker that did. Chunk counts below, at and above the lane count
  // (one chunk, or fewer than the lanes, leaves some lanes idle).
  for (size_t threads : {1, 3, 4, 8}) {
    SetParallelThreads(threads);
    for (size_t chunks : {std::max<size_t>(1, threads - 1), threads,
                          threads + 1, 5 * threads + 3}) {
      const uint64_t total = CounterValue("parallel.chunks");
      const uint64_t worker = CounterValue("parallel.chunks_worker");
      const uint64_t submitter = CounterValue("parallel.chunks_submitter");
      constexpr int kRounds = 200;
      for (int round = 0; round < kRounds; ++round) ExpectCoverage(chunks, 1);
      const uint64_t ran = CounterValue("parallel.chunks") - total;
      EXPECT_EQ(ran, kRounds * chunks) << threads << " lanes";
      EXPECT_EQ(CounterValue("parallel.chunks_worker") - worker +
                    CounterValue("parallel.chunks_submitter") - submitter,
                ran)
          << threads << " lanes, " << chunks << " chunks";
    }
  }
}

TEST_F(ParallelTest, BackToBackRegionsFasterThanSpinBudget) {
  // Regions microseconds apart: workers are still spinning on the last
  // epoch, and late ones must never run a chunk of the next region twice.
  SetParallelThreads(4);
  for (int round = 0; round < 2000; ++round) ExpectCoverage(16, 1);
}

TEST_F(ParallelTest, RegionAfterWorkersWentToSleep) {
  SetParallelThreads(4);
  ExpectCoverage(64, 4);
  // Far past the spin budget: every worker is blocked on the condition
  // variable, and the next region has to wake one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t wakes = Wakes();
  ExpectCoverage(64, 4);
  EXPECT_GT(Wakes(), wakes);
  ExpectCoverage(64, 4);
}

TEST_F(ParallelTest, SetThreadCountWhileWorkersSpin) {
  for (size_t threads : {4, 2, 8, 1, 3, 4}) {
    SetParallelThreads(threads);
    ASSERT_EQ(ParallelThreads(), threads);
    ExpectCoverage(1000, 7);  // workers spin after this; resize at once
  }
}

TEST_F(ParallelTest, ExceptionThrownInSpunUpRegion) {
  SetParallelThreads(4);
  ExpectCoverage(64, 1);  // leaves the workers spinning
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(ParallelFor(0, 64, 1,
                             [&](size_t lo, size_t) {
                               if (lo % 16 == 5) throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    ExpectCoverage(64, 1);
  }
}

TEST_F(ParallelTest, AlternatingSmallAndLargeRegionsCoverEveryIndex) {
  // Two-chunk regions that the submitter often finishes alone, between
  // regions with many more chunks than lanes.
  SetParallelThreads(4);
  for (int round = 0; round < 10'000; ++round) {
    if (round % 2 == 0) {
      ExpectCoverage(2, 1);
    } else {
      ExpectCoverage(1000, 7);
    }
  }
}

TEST_F(ParallelTest, ConcurrentSubmittersEachCoverTheirRanges) {
  // External submitters queue for the pool one region at a time.
  SetParallelThreads(4);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([] {
      for (int round = 0; round < 300; ++round) ExpectCoverage(200, 9);
    });
  }
  for (std::thread& t : submitters) t.join();
}

}  // namespace
}  // namespace magneto
