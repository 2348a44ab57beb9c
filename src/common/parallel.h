#ifndef MAGNETO_COMMON_PARALLEL_H_
#define MAGNETO_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace magneto {

/// Shared intra-op parallel runtime.
///
/// One lazily-initialised global pool serves every hot path (GEMM, the
/// preprocessing pipeline, trainer batch assembly, classifier construction).
/// Work is expressed through `ParallelFor`, which splits [begin, end) into
/// chunks of at most `grain` indices. The chunk decomposition depends only on
/// (begin, end, grain) — never on the worker count — and every chunk covers a
/// disjoint index range, so any kernel whose per-index output is independent
/// of the partitioning produces bit-identical results at every thread count.
/// The serial fallback walks the exact same chunk sequence.
///
/// Thread count resolution, in priority order:
///   1. `SetParallelThreads(n)` (tests and benchmarks; takes effect on the
///      next ParallelFor),
///   2. the `MAGNETO_THREADS` environment variable, read once at first use,
///   3. `std::thread::hardware_concurrency()`.
///
/// Nested `ParallelFor` calls (from inside a worker) run serially inline —
/// the outer loop already owns the pool. Exceptions thrown by `fn` are
/// captured and rethrown on the calling thread after all chunks finish.
///
/// Between regions the workers spin for a bounded time before they sleep,
/// so a stream of small regions (one per layer of a batch-1 forward) pays
/// no wake-up; each worker starts on its own CPU (DESIGN.md §4b).
class ThreadPool {
 public:
  /// The process-wide pool. First call reads MAGNETO_THREADS and spawns
  /// workers; subsequent calls are a plain atomic load.
  static ThreadPool& Global();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (worker threads + the calling thread).
  size_t thread_count() const;

  /// Resizes the pool to `n` total lanes (min 1). Joins existing workers
  /// first; safe to call between parallel regions, not from inside one.
  void SetThreadCount(size_t n);

  /// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into chunks of
  /// at most `grain` indices (grain 0 is treated as 1). Blocks until every
  /// chunk is done. The caller participates in the work. Empty ranges return
  /// immediately without invoking `fn`.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  explicit ThreadPool(size_t threads);

  struct Impl;
  Impl* impl_;
};

/// The CPU the calling thread runs on, or -1 where that is unknown.
int CurrentCpu();

/// Moves the calling thread to the CPU `lane` places after `home` in its
/// allowed set, then allows the whole set again. Threads started this way
/// (pool workers, EdgeFleet's serve workers) begin on distinct CPUs even
/// where the scheduler never balances load: a cpuset with
/// sched_load_balance off keeps every thread on the CPU it was created on,
/// so all of them would share their creator's. Where the scheduler does
/// balance, it stays free to move them. A no-op for home < 0 or fewer than
/// two allowed CPUs.
void SpreadFrom(int home, size_t lane);

/// Convenience wrappers over ThreadPool::Global().
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);
size_t ParallelThreads();
void SetParallelThreads(size_t n);

}  // namespace magneto

#endif  // MAGNETO_COMMON_PARALLEL_H_
