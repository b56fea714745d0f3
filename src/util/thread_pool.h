// Fixed-size worker pool for data-parallel hot paths (distance matrices,
// k-means assignment, per-component and per-shard fits).
//
// Loops run through one primitive, the free ParallelFor below, chosen so
// that callers stay bit-deterministic: iterations write to disjoint,
// index-addressed slots and any order-sensitive reduction is done
// serially by the caller afterwards. Scheduling (inline, or dynamic
// block claiming on the pool) therefore never changes results, only
// wall-clock time.
#ifndef LOGR_UTIL_THREAD_POOL_H_
#define LOGR_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace logr {

class ThreadPool {
 public:
  /// Starts `num_threads` workers. 0 or 1 creates a degenerate pool on
  /// which ParallelFor runs inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads) {
    if (num_threads <= 1) return;
    workers_.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (1 for a degenerate/inline pool).
  std::size_t NumThreads() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Loops this pool has handed to its workers so far (inline runs are
  /// not counted). Lets tests prove a loop really ran in parallel.
  std::size_t JobsDispatched() const { return jobs_dispatched_.load(); }

  /// Process-wide pool sized from the LOGR_THREADS environment variable,
  /// defaulting to the hardware concurrency. Intentionally leaked so it
  /// outlives static destructors.
  static ThreadPool* Shared() {
    static ThreadPool* pool = new ThreadPool(SharedSize());
    return pool;
  }

 private:
  template <typename Fn>
  friend void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                          std::size_t grain, Fn&& fn);

  struct ForJob {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    std::size_t block = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<long> pending{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::exception_ptr error;  // first exception thrown by `fn`
  };

  /// Runs [begin, end) on the workers and blocks until every iteration
  /// completed. The calling thread participates, so the pool makes
  /// progress even while its workers are busy elsewhere. Iterations are
  /// claimed in small contiguous blocks off an atomic cursor — dynamic
  /// load balancing for skewed iterations (e.g. triangular distance
  /// loops). If `fn` throws, remaining iterations are abandoned and the
  /// first exception is rethrown here after every in-flight worker has
  /// stopped touching the job.
  void Dispatch(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn) {
    const std::size_t n = end - begin;
    const std::size_t block =
        std::max<std::size_t>(1, n / (workers_.size() * 8));
    auto job = std::make_shared<ForJob>();
    job->next.store(begin);
    job->end = end;
    job->block = block;
    job->fn = &fn;

    const std::size_t helpers =
        std::min(workers_.size(), (n + block - 1) / block);
    job->pending.store(static_cast<long>(helpers));
    jobs_dispatched_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t t = 0; t < helpers; ++t) jobs_.push(job);
    }
    wake_.notify_all();

    RunJob(*job);  // caller helps

    {
      std::unique_lock<std::mutex> lock(job->done_mu);
      job->done_cv.wait(lock, [&] { return job->pending.load() == 0; });
    }
    if (job->error) std::rethrow_exception(job->error);
  }

  static std::size_t SharedSize() {
    if (const char* env = std::getenv("LOGR_THREADS")) {
      long v = std::atol(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  static void RunJob(ForJob& job) {
    try {
      for (;;) {
        std::size_t lo = job.next.fetch_add(job.block);
        if (lo >= job.end) break;
        std::size_t hi = std::min(job.end, lo + job.block);
        for (std::size_t i = lo; i < hi; ++i) (*job.fn)(i);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.done_mu);
        if (!job.error) job.error = std::current_exception();
      }
      // Park the cursor past the end so no thread claims further blocks.
      job.next.store(job.end);
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<ForJob> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
        if (stopping_ && jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop();
      }
      RunJob(*job);
      bool last;
      {
        std::lock_guard<std::mutex> lock(job->done_mu);
        last = job->pending.fetch_sub(1) == 1;
      }
      if (last) job->done_cv.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::queue<std::shared_ptr<ForJob>> jobs_;
  bool stopping_ = false;
  std::atomic<std::size_t> jobs_dispatched_{0};
};

/// Runs `fn(i)` for every i in [begin, end) and returns once all
/// iterations completed; `fn` must tolerate concurrent calls on distinct
/// indices. A null or single-thread pool, or a range shorter than
/// `grain`, runs the loop inline on the caller with `fn` called directly;
/// otherwise the pool's workers share it. `grain` is the fewest
/// iterations worth the dispatch round trip (queue lock, wakeups,
/// completion wait), so each call site states it from its own
/// per-iteration cost: 1 for whole tasks (a shard, a component fit).
/// Not reentrant: `fn` must not run a ParallelFor on the same pool.
template <typename Fn>
void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 std::size_t grain, Fn&& fn) {
  if (begin >= end) return;
  if (pool == nullptr || pool->workers_.empty() || end - begin < grain) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool->Dispatch(begin, end, std::function<void(std::size_t)>(std::ref(fn)));
}

}  // namespace logr

#endif  // LOGR_UTIL_THREAD_POOL_H_
