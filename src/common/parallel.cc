#include "common/parallel.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto {

namespace {

/// How long a worker keeps polling for the next region after it leaves one,
/// and how long a submitter polls for straggling chunks, before either
/// blocks on a condition variable. A batch-1 stream window runs one region
/// per backbone layer a few microseconds apart, and between one window's
/// last layer and the next window's first the caller spends ~20 us on
/// classification, the next window's frame pushes and finishing its
/// features (a closed-loop stream of the paper backbone on a 4-vCPU Xeon
/// runs ~38 us per window, ~17 us of it the forward); the budget covers
/// that gap with room to spare, so a steady stream never pays a futex wake.
/// An idle pool stops spinning after one budget.
constexpr std::chrono::microseconds kSpinBudget{200};

/// Static handles: registry lookup happens once per process, the hot path
/// only touches the atomics behind the pointers. `parallel.chunks` splits
/// into `chunks_submitter`, the chunks a ParallelFor caller ran itself
/// (every chunk of a serial region), and `chunks_worker`, the ones a pool
/// worker ran.
struct PoolMetrics {
  obs::Counter* regions =
      obs::Registry::Global().GetCounter("parallel.regions");
  obs::Counter* serial_regions =
      obs::Registry::Global().GetCounter("parallel.regions_serial");
  obs::Counter* wakes = obs::Registry::Global().GetCounter("parallel.wakes");
  obs::Counter* chunks = obs::Registry::Global().GetCounter("parallel.chunks");
  obs::Counter* worker_chunks =
      obs::Registry::Global().GetCounter("parallel.chunks_worker");
  obs::Counter* submitter_chunks =
      obs::Registry::Global().GetCounter("parallel.chunks_submitter");
  obs::Gauge* threads = obs::Registry::Global().GetGauge("parallel.threads");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics;
  return *metrics;
}

/// True while the current thread is executing chunks (worker threads always,
/// the submitting thread for the duration of a region). Nested ParallelFor
/// calls see it and run inline instead of deadlocking on the shared job slot.
thread_local bool t_inside_pool = false;

struct InsidePoolGuard {
  bool saved = t_inside_pool;
  InsidePoolGuard() { t_inside_pool = true; }
  ~InsidePoolGuard() { t_inside_pool = saved; }
};

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("MAGNETO_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Polls `ready` for up to kSpinBudget; true as soon as it holds. Yields
/// the CPU every few microseconds: the scheduler may have put the thread
/// this one waits for on the same CPU, and a spin without yields would keep
/// it off for the whole budget. Reads the clock only if `ready` does not
/// hold at once.
template <typename Ready>
bool SpinUntil(Ready ready) {
  if (ready()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      CpuRelax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

}  // namespace

void SpreadFrom(int home, size_t lane) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (home < 0 ||
      pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0) {
    return;
  }
  const int count = CPU_COUNT(&allowed);
  if (count < 2 || !CPU_ISSET(home, &allowed)) return;
  int rank = 0;  // position of `home` among the allowed CPUs
  for (int c = 0; c < home; ++c) rank += CPU_ISSET(c, &allowed) ? 1 : 0;
  const int target = static_cast<int>((rank + lane) % count);
  int cpu = 0;
  for (int seen = -1;; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && ++seen == target) break;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  }
#else
  (void)home;
  (void)lane;
#endif
}

int CurrentCpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// The pool owns one job slot that every region reuses, so a region
/// allocates nothing.
///
/// Hand-off protocol (DESIGN.md §4b):
///   - `epoch` is even while a region is published and odd while the
///     submitter rewrites the slot. A worker joins a region by setting its
///     lane's presence word and then re-reading `epoch`; if it is still the
///     even value the worker saw, the submitter of the next region has not
///     started and will wait for this worker to leave before it touches the
///     slot.
///   - The submitter makes the epoch odd, waits until no worker lane is
///     present (a worker that woke late may still be claiming the previous
///     region's exhausted chunks), rewrites the slot, publishes the next
///     even epoch, and notifies `work_cv` only if some worker is asleep on
///     it. A worker asleep at publication is never waited for: the
///     submitter runs whatever chunks nobody else claims.
///   - Each presence word sits on its lane's own cache line, beside the
///     lane's chunk cursor, so joining and leaving never write the line
///     that spinning workers poll for the epoch.
///   - Every lane claims chunks from its own home range first and then
///     steals from the others' that still show work, so a batch-1 layer
///     gives each lane the same columns window after window and its weight
///     slice stays in that core's cache.
///   - A lane adds the chunks it ran to `done_chunks` once, after its last
///     one. The submitter counts its own and attributes the rest to the
///     workers, one counter update each per region.
///   - Workers and the submitter spin for kSpinBudget before they sleep; the
///     sleepers and submitter_sleeping flags let the other side skip the
///     condition variable when nobody waits on it.
struct ThreadPool::Impl {
  /// One lane's range of chunk indices and, for a worker lane, whether its
  /// worker is inside the published region. Padded to a cache line: each
  /// lane claims from its own cursor until its range runs out, and only
  /// that lane's worker writes `present`.
  struct alignas(64) Lane {
    std::atomic<size_t> next{0};
    size_t end = 0;
    std::atomic<bool> present{false};
  };

  // ---- The job slot: written only while `epoch` is odd and no worker lane
  // is present.
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  const std::function<void(size_t, size_t)>* fn = nullptr;
  std::vector<Lane> lanes;  // lane 0 is the submitter; sized with the workers
  std::mutex error_mutex;    // guards error
  std::exception_ptr error;  // first captured exception of the region

  alignas(64) std::atomic<size_t> done_chunks{0};  // worker chunks finished
  std::atomic<bool> submitter_sleeping{false};

  alignas(64) std::atomic<uint64_t> epoch{0};
  std::atomic<size_t> sleepers{0};  // workers blocked (or blocking) on work_cv
  std::atomic<bool> stop{false};

  std::mutex mutex;                 // pairs with both condition variables
  std::condition_variable work_cv;  // sleeping workers wait for an epoch
  std::condition_variable done_cv;  // a sleeping submitter waits for chunks
  std::vector<std::thread> workers;
  // Serialises external submitters; nested calls never take this path.
  std::mutex submit_mutex;

  /// Runs chunks for `lane` until every cursor is exhausted: its own range
  /// first, then the other lanes' in turn. A cursor whose plain load shows
  /// its range spent is skipped without a read-modify-write on its line.
  /// Returns how many chunks this lane ran.
  size_t RunChunks(size_t lane) {
    const size_t count = lanes.size();
    size_t ran = 0;
    for (size_t step = 0; step < count; ++step) {
      Lane& victim = lanes[(lane + step) % count];
      while (victim.next.load(std::memory_order_relaxed) < victim.end) {
        const size_t c = victim.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= victim.end) break;
        ++ran;
        const size_t b = begin + c * grain;
        const size_t e = std::min(end, b + grain);
        try {
          (*fn)(b, e);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    }
    return ran;
  }

  void WorkerLoop(size_t lane, uint64_t seen, int home) {
    SpreadFrom(home, lane);
    t_inside_pool = true;
    Lane& self = lanes[lane];
    for (;;) {
      uint64_t e = seen;
      const auto ready = [&] {
        e = epoch.load();
        return stop.load(std::memory_order_relaxed) ||
               (e != seen && e % 2 == 0);
      };
      if (!SpinUntil(ready)) {
        std::unique_lock<std::mutex> lock(mutex);
        sleepers.fetch_add(1);
        work_cv.wait(lock, ready);
        sleepers.fetch_sub(1);
      }
      if (stop.load(std::memory_order_relaxed)) return;
      self.present.store(true);
      if (epoch.load() != e) {
        // The next region's submitter got in first and is rewriting the
        // slot; start over on its epoch.
        self.present.store(false, std::memory_order_release);
        continue;
      }
      seen = e;
      const size_t ran = RunChunks(lane);
      if (ran > 0) {
        done_chunks.fetch_add(ran);
        if (submitter_sleeping.load()) {
          // The submitter blocked: take the mutex so the notify cannot fall
          // between its predicate check and its wait.
          std::lock_guard<std::mutex> lock(mutex);
          done_cv.notify_one();
        }
      }
      self.present.store(false, std::memory_order_release);
    }
  }

  void StartWorkers(size_t n) {
    lanes = std::vector<Lane>(n + 1);
    workers.reserve(n);
    const uint64_t seen = epoch.load();
    const int home = CurrentCpu();
    for (size_t i = 0; i < n; ++i) {
      workers.emplace_back(
          [this, i, seen, home] { WorkerLoop(i + 1, seen, home); });
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop.store(true);
    }
    work_cv.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
    stop.store(false);
  }

  /// Waits until no worker is inside the previous region, then writes the
  /// region into the slot and hands each lane its home range of chunks.
  /// The caller holds submit_mutex.
  void Publish(size_t b, size_t e, size_t g, size_t chunks,
               const std::function<void(size_t, size_t)>* body) {
    const uint64_t old = epoch.load(std::memory_order_relaxed);
    epoch.store(old + 1);  // odd: workers that have not joined stay out
    for (size_t lane = 1; lane < lanes.size(); ++lane) {
      const std::atomic<bool>& present = lanes[lane].present;
      if (!SpinUntil([&] { return !present.load(); })) {
        while (present.load()) std::this_thread::yield();
      }
    }
    begin = b;
    end = e;
    grain = g;
    fn = body;
    done_chunks.store(0, std::memory_order_relaxed);
    const size_t count = lanes.size();
    const size_t per_lane = (chunks + count - 1) / count;
    for (size_t lane = 0; lane < count; ++lane) {
      const size_t first = std::min(chunks, lane * per_lane);
      lanes[lane].next.store(first, std::memory_order_relaxed);
      lanes[lane].end = std::min(chunks, first + per_lane);
    }
    epoch.store(old + 2);
    if (sleepers.load() > 0) {
      { std::lock_guard<std::mutex> lock(mutex); }
      work_cv.notify_all();
      Metrics().wakes->Increment();
    }
  }

  /// Blocks until the workers have finished `chunks` chunks of the
  /// published region: spins first, then sleeps on done_cv.
  void AwaitChunks(size_t chunks) {
    const auto done = [&] { return done_chunks.load() == chunks; };
    if (SpinUntil(done)) return;
    std::unique_lock<std::mutex> lock(mutex);
    submitter_sleeping.store(true);
    done_cv.wait(lock, done);
    submitter_sleeping.store(false);
  }
};

ThreadPool::ThreadPool(size_t threads) : impl_(new Impl) {
  impl_->StartWorkers(threads > 0 ? threads - 1 : 0);
  Metrics().threads->Set(static_cast<double>(thread_count()));
}

ThreadPool::~ThreadPool() {
  impl_->StopWorkers();
  delete impl_;
}

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally: worker threads must outlive static destructors of
  // translation units that might still issue ParallelFor during teardown.
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

size_t ThreadPool::thread_count() const { return impl_->workers.size() + 1; }

void ThreadPool::SetThreadCount(size_t n) {
  std::lock_guard<std::mutex> submit_lock(impl_->submit_mutex);
  impl_->StopWorkers();
  impl_->StartWorkers(n > 0 ? n - 1 : 0);
  Metrics().threads->Set(static_cast<double>(thread_count()));
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (end - begin + grain - 1) / grain;

  // Serial path: nested call, single-lane pool, or a range that fits in one
  // chunk. Walk the identical chunk sequence so per-chunk kernels see the
  // same subranges as the threaded path.
  if (t_inside_pool || impl_->workers.empty() || num_chunks == 1) {
    // Counter-only telemetry here: this branch also serves nested calls from
    // inside workers, which are far too hot for clocks or spans.
    Metrics().serial_regions->Increment();
    Metrics().chunks->Increment(num_chunks);
    Metrics().submitter_chunks->Increment(num_chunks);
    InsidePoolGuard guard;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t b = begin + c * grain;
      const size_t e = std::min(end, b + grain);
      fn(b, e);
    }
    return;
  }

  Metrics().regions->Increment();
  Metrics().chunks->Increment(num_chunks);
  obs::TraceSpan span("ParallelFor");

  std::lock_guard<std::mutex> submit_lock(impl_->submit_mutex);
  impl_->Publish(begin, end, grain, num_chunks, &fn);
  size_t own = 0;
  {
    InsidePoolGuard guard;
    own = impl_->RunChunks(0);
  }
  impl_->AwaitChunks(num_chunks - own);
  Metrics().submitter_chunks->Increment(own);
  Metrics().worker_chunks->Increment(num_chunks - own);
  if (impl_->error) {
    std::exception_ptr error = std::move(impl_->error);
    impl_->error = nullptr;
    std::rethrow_exception(error);
  }
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

size_t ParallelThreads() { return ThreadPool::Global().thread_count(); }

void SetParallelThreads(size_t n) { ThreadPool::Global().SetThreadCount(n); }

}  // namespace magneto
