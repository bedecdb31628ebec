// A small fixed-size worker pool for the parallel bound engine.
//
// Deliberately minimal: a single mutex/condvar-protected FIFO of jobs and a
// fixed number of std::jthread workers -- no work stealing, no task graphs.
// The only composite operation the library needs is parallel_for, which
// distributes indices [0, n) across the workers via a shared atomic cursor
// and blocks the caller until every index has been processed.
//
// Determinism contract: parallel_for says nothing about the ORDER in which
// indices run, so callers that need deterministic output must write each
// index's result into its own slot and merge the slots in index order
// afterwards (this is exactly what src/core/lower_bound.cpp does).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rtlb {

class ThreadPool {
 public:
  /// Spawns exactly `num_threads` workers (at least 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run body(i) for every i in [0, n), spread across the workers; blocks
  /// until all calls return. The first exception thrown by any body call is
  /// rethrown here (remaining indices may or may not run).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Map an options-style thread count to a worker count: values <= 0 mean
  /// "one per hardware thread", anything else is taken literally.
  static unsigned resolve_threads(int requested);

  /// Process-wide count of parallel_for bodies dispatched (including the
  /// serial inline path), monotone since process start. The observability
  /// layer reads deltas around a pipeline stage to attribute pool work to
  /// it; a single relaxed atomic add per parallel_for keeps the cost
  /// unmeasurable.
  static std::uint64_t tasks_dispatched();

  /// Process-wide count of worker threads spawned by pool constructors,
  /// monotone since process start: what pins that each pool is sized to
  /// its work, not to the requested thread count.
  static std::uint64_t threads_started();

 private:
  void submit(std::function<void()> job);
  void worker_loop(std::stop_token st);

  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::queue<std::function<void()>> jobs_;
  std::vector<std::jthread> workers_;
};

}  // namespace rtlb
