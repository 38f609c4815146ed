#pragma once
// Minimal fixed-size thread pool used to run independent Monte-Carlo trials
// and the shards of one trial in parallel. parallel_for is its one pattern:
// the body is borrowed (a pointer and a thunk, never copied), each call
// lives on its caller's stack, and nothing is allocated per call.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace flip {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, count) and blocks until all iterations
  /// finish. body must be safe to call concurrently for distinct i. The
  /// first exception body throws propagates after the started iterations
  /// finish; the rest are not started.
  ///
  /// The caller publishes min(count, size()) - 1 openings, runs indices
  /// with the idle workers that take one, closes the openings and waits
  /// for the workers that joined. Calls may overlap (nested in a body, or
  /// from a second thread). A worker joins only while idle and while fewer
  /// than size() - 1 workers run indices, leaving a core to the outermost
  /// caller; a waiting caller runs nothing else. So no thread inside a body
  /// gets another call's indices, and nesting cannot deadlock.
  template <typename Body>
  void parallel_for(std::size_t count, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    run(count, const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        [](void* fn, std::size_t i) { (*static_cast<Fn*>(fn))(i); });
  }

  /// Process-wide shared pool for callers that don't manage their own.
  static ThreadPool& shared();

  /// Process-wide pool with exactly `threads` workers (0 = shared()).
  /// Pools are created on first use and then persist, so repeated sweeps
  /// with the same --threads reuse one set of workers — and with them every
  /// thread_local per-worker scratch — instead of spawning and joining a
  /// fresh pool each time.
  static ThreadPool& sized(std::size_t threads);

 private:
  using Thunk = void (*)(void*, std::size_t);

  /// One parallel_for in flight, on its caller's stack. While it has
  /// openings it is on the pool's list of open calls.
  struct Call {
    void* body;
    Thunk thunk;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> joined{0};  ///< workers inside drain()
    // Guarded by mutex_:
    std::size_t openings = 0;
    Call* below = nullptr;  ///< the next open call
    std::exception_ptr error{};
  };

  void run(std::size_t count, void* body, Thunk thunk);
  /// Whether an idle worker may join a call now; call with mutex_ held.
  bool may_join() const {
    return open_ != nullptr && joined_ + 1 < workers_.size();
  }
  /// Runs indices of `call` until none is left.
  void drain(Call& call);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable opened_;  ///< workers: a call to join or stopping_
  std::condition_variable left_;    ///< callers: a call's last joiner left
  bool stopping_ = false;  ///< guarded by mutex_
  Call* open_ = nullptr;   ///< the newest call with openings; mutex_
  /// Workers inside drain(). A worker leaves it without the mutex, then
  /// re-checks may_join() itself.
  std::atomic<std::size_t> joined_{0};
};

}  // namespace flip
