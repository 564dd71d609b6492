#ifndef ACQUIRE_EXEC_THREAD_POOL_H_
#define ACQUIRE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace acquire {

/// Persistent worker pool for the evaluation layers. Threads are spawned
/// once and reused across every ParallelFor submission, replacing the
/// spawn-per-EvaluateBox pattern the parallel layer started with: a box
/// query on a prepared layer is microseconds of work, so thread creation
/// used to dominate it.
///
/// Determinism contract: chunk boundaries depend only on (n, min_chunk,
/// num_threads), never on scheduling, so a caller that keeps per-chunk
/// partial aggregates and merges them in chunk order gets bit-identical
/// results on every run (see ScanBoxOverMatrix).
class ThreadPool {
 public:
  /// `num_threads` = 0 sizes the pool to the hardware concurrency
  /// (at least 1 worker either way).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Number of chunks ParallelFor will split [0, n) into: enough to feed
  /// every runner (workers + the calling thread) while keeping chunks of at
  /// least `min_chunk` elements.
  size_t NumChunks(size_t n, size_t min_chunk) const;

  /// Runs body(chunk_index, begin, end) over a deterministic chunking of
  /// [0, n); blocks until every chunk finished. The calling thread
  /// participates, so progress is guaranteed even while the workers are
  /// busy with other submissions. If any chunk throws, the first exception
  /// (in completion order) is rethrown here after all chunks settle.
  /// n == 0 is a no-op.
  void ParallelFor(size_t n, size_t min_chunk,
                   const std::function<void(size_t, size_t, size_t)>& body);

  /// Enqueues one task for a worker and returns immediately; the future
  /// becomes ready (rethrowing any exception) when the task finishes.
  /// Unlike ParallelFor the calling thread does not participate — this is
  /// for overlapping independent work with the caller's own (e.g. the
  /// batched explorer prefetching the next expand layer).
  std::future<void> Submit(std::function<void()> task);

  /// Process-wide default pool (hardware-sized, created on first use and
  /// intentionally never destroyed so late static destructors can use it).
  /// The ACQUIRE_POOL_THREADS environment variable overrides the size
  /// (read once, at first use).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace acquire

#endif  // ACQUIRE_EXEC_THREAD_POOL_H_
