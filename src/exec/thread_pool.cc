#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/failpoint.h"

namespace acquire {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::NumChunks(size_t n, size_t min_chunk) const {
  if (n == 0) return 0;
  min_chunk = std::max<size_t>(1, min_chunk);
  const size_t runners = workers_.size() + 1;  // workers + calling thread
  return std::max<size_t>(1, std::min(runners, n / min_chunk));
}

void ThreadPool::ParallelFor(
    size_t n, size_t min_chunk,
    const std::function<void(size_t, size_t, size_t)>& body) {
  const size_t chunks = NumChunks(n, min_chunk);
  if (chunks == 0) return;
  // Injected scheduling fault: degrade to the serial path. Results are
  // unchanged — only the execution strategy differs.
  if (chunks == 1 || ACQ_FAILPOINT("exec.parallel_for")) {
    body(0, 0, n);
    return;
  }

  // Runners (workers plus this thread) claim chunk indices from a shared
  // counter; chunk boundaries are pure functions of (n, chunks).
  struct Job {
    size_t n;
    size_t chunks;
    size_t chunk_size;
    const std::function<void(size_t, size_t, size_t)>* body;
    std::atomic<size_t> next{0};
    std::atomic<size_t> finished{0};
    std::mutex mu;
    std::condition_variable done_cv;
    std::exception_ptr error;
  };
  auto job = std::make_shared<Job>();
  job->n = n;
  job->chunks = chunks;
  job->chunk_size = (n + chunks - 1) / chunks;
  job->body = &body;

  auto run_chunks = [](const std::shared_ptr<Job>& j) {
    for (;;) {
      const size_t c = j->next.fetch_add(1);
      if (c >= j->chunks) return;
      const size_t begin = c * j->chunk_size;
      const size_t end = std::min(j->n, begin + j->chunk_size);
      try {
        (*j->body)(c, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(j->mu);
        if (!j->error) j->error = std::current_exception();
      }
      if (j->finished.fetch_add(1) + 1 == j->chunks) {
        // Lock so the waiter cannot miss the notify between its predicate
        // check and its wait.
        std::lock_guard<std::mutex> lock(j->mu);
        j->done_cv.notify_all();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    // One helper task per chunk beyond the caller's; surplus tasks find
    // `next` exhausted and return immediately.
    const size_t helpers = std::min(workers_.size(), chunks - 1);
    for (size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([job, run_chunks] { run_chunks(job); });
    }
  }
  work_cv_.notify_all();

  run_chunks(job);
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock,
                      [&] { return job->finished.load() == job->chunks; });
    if (job->error) std::rethrow_exception(job->error);
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back([packaged] { (*packaged)(); });
  }
  work_cv_.notify_one();
  return future;
}

ThreadPool& ThreadPool::Shared() {
  // ACQUIRE_POOL_THREADS overrides the hardware-concurrency default —
  // useful for pinning scaling measurements and for capping the pool in
  // oversubscribed CI containers. Clamped to [1, 256]; unset, empty or
  // unparsable values keep the default.
  static ThreadPool* shared = [] {
    size_t threads = 0;
    if (const char* env = std::getenv("ACQUIRE_POOL_THREADS")) {
      const long parsed = std::atol(env);
      if (parsed > 0) {
        threads = static_cast<size_t>(std::min<long>(parsed, 256));
      }
    }
    return new ThreadPool(threads);
  }();
  return *shared;
}

}  // namespace acquire
