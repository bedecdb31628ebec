#include "src/common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>

namespace rtlb {

namespace {
std::atomic<std::uint64_t> g_tasks_dispatched{0};
std::atomic<std::uint64_t> g_threads_started{0};
}  // namespace

std::uint64_t ThreadPool::tasks_dispatched() {
  return g_tasks_dispatched.load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = 1;
  g_threads_started.fetch_add(num_threads, std::memory_order_relaxed);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
  }
}

ThreadPool::~ThreadPool() {
  for (std::jthread& w : workers_) w.request_stop();
  cv_.notify_all();
  // std::jthread joins on destruction.
}

unsigned ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return static_cast<unsigned>(requested);
  const unsigned hw = std::jthread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(mutex_);
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::stop_token st) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, st, [this] { return !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop requested and queue drained
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  g_tasks_dispatched.fetch_add(n, std::memory_order_relaxed);
  if (workers_.size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    std::size_t n = 0;
    std::size_t runners = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;                // guarded by mutex
    std::exception_ptr error;            // guarded by mutex
  };
  // shared_ptr so a runner that finishes after the caller was woken (but
  // before it returns) still has a live State to touch.
  auto state = std::make_shared<State>();
  state->n = n;
  state->runners = std::min<std::size_t>(workers_.size(), n);
  state->body = &body;

  for (std::size_t r = 0; r < state->runners; ++r) {
    submit([state] {
      for (;;) {
        const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= state->n) break;
        try {
          (*state->body)(i);
        } catch (...) {
          std::lock_guard lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
        }
      }
      {
        std::lock_guard lock(state->mutex);
        ++state->done;
      }
      state->done_cv.notify_one();
    });
  }

  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->done == state->runners; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace rtlb
