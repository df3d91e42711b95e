#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"

namespace doseopt {

namespace {
thread_local bool tl_in_parallel = false;

/// Scoped flag so nested parallel_for calls run inline.
struct ParallelRegionGuard {
  bool prev;
  ParallelRegionGuard() : prev(tl_in_parallel) { tl_in_parallel = true; }
  ~ParallelRegionGuard() { tl_in_parallel = prev; }
};
}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  /// Held by the one caller whose loop currently owns the workers; a
  /// concurrent submitter that cannot take it runs its loop inline.
  std::mutex submit_mu;
  std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  bool stop = false;
  std::uint64_t job_id = 0;
  int working = 0;  ///< workers still draining the current job

  // Current job (valid while working > 0 or the caller is in the loop).
  const FunctionRef<void(int, std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::exception_ptr error;

  void run_chunks(int lane) {
    ParallelRegionGuard guard;
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + chunk, n);
      try {
        for (std::size_t i = begin; i < end; ++i) {
          if (abort.load(std::memory_order_relaxed)) return;
          (*fn)(lane, i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  void worker_loop(int lane) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_start.wait(lock, [&] { return stop || job_id != seen; });
        if (stop) return;
        seen = job_id;
      }
      run_chunks(lane);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--working == 0) cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int lanes) {
  if (lanes <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    lanes = hw > 0 ? static_cast<int>(hw) : 1;
  }
  lane_count_ = lanes;
  if (lanes <= 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(static_cast<std::size_t>(lanes - 1));
  for (int lane = 1; lane < lanes; ++lane)
    impl_->workers.emplace_back([this, lane] { impl_->worker_loop(lane); });
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_start.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::parallel_for_lane(std::size_t n,
                                   FunctionRef<void(int, std::size_t)> fn) {
  if (n == 0) return;
  // Serial paths: no workers, a tiny loop, a nested call from inside a
  // pool task (fanning out again could deadlock on this very pool), or
  // another thread's loop already owns the workers (the job state below is
  // single-occupancy).  Results are index-ordered, so running inline on
  // lane 0 gives the same values.
  std::unique_lock<std::mutex> submit;
  if (impl_ != nullptr && n > 1 && !in_parallel_region())
    submit = std::unique_lock<std::mutex>(impl_->submit_mu, std::try_to_lock);
  if (!submit.owns_lock()) {
    ParallelRegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }

  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.fn = &fn;
    im.n = n;
    im.chunk =
        std::max<std::size_t>(1, n / (static_cast<std::size_t>(lane_count_) * 8));
    im.cursor.store(0);
    im.abort.store(false);
    im.error = nullptr;
    im.working = lane_count_ - 1;
    ++im.job_id;
  }
  im.cv_start.notify_all();
  im.run_chunks(/*lane=*/0);
  std::unique_lock<std::mutex> lock(im.mu);
  im.cv_done.wait(lock, [&] { return im.working == 0; });
  im.fn = nullptr;
  if (im.error) {
    std::exception_ptr e = im.error;
    im.error = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              FunctionRef<void(std::size_t)> fn) {
  parallel_for_lane(n, [fn](int, std::size_t i) { fn(i); });
}

bool ThreadPool::in_parallel_region() { return tl_in_parallel; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("DOSEOPT_THREADS")) {
      const int v = std::atoi(env);
      if (v >= 1) return v;
    }
    return 0;  // hardware concurrency
  }());
  return pool;
}

}  // namespace doseopt
