#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace flip {

// current(): set by drain() around the indices it runs, then restored.
static thread_local ThreadPool* current_pool = nullptr;

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  opened_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    opened_.wait(lock, [this] { return stopping_ || open_ != nullptr; });
    if (stopping_) return;
    Call& call = *open_;
    if (--call.openings == 0) open_ = call.below;
    ++call.joined;
    lock.unlock();
    drain(call);
    // Only the last one out wakes the callers. Its caller may return once
    // joined is 0, so nothing here touches the call after the decrement.
    const bool last = --call.joined == 0;
    lock.lock();
    if (last) left_.notify_all();
  }
}

void ThreadPool::drain(Call& call) {
  ThreadPool* const outer = std::exchange(current_pool, this);
  for (;;) {
    const std::size_t i = call.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= call.count) break;
    try {
      call.thunk(call.body, i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!call.error) call.error = std::current_exception();
      call.next.store(call.count, std::memory_order_relaxed);  // start no more
      break;
    }
  }
  current_pool = outer;
}

void ThreadPool::run(std::size_t count, void* body, Thunk thunk) {
  Call call{body, thunk, count};
  const bool open = std::min(count, size()) > 1;  // else run it inline
  if (open) {
    std::lock_guard lock(mutex_);
    call.openings = std::min(count, size()) - 1;
    call.below = std::exchange(open_, &call);
  }
  if (open) opened_.notify_all();
  drain(call);
  if (open) {
    std::unique_lock lock(mutex_);
    if (call.openings > 0) {  // still listed: close the openings left
      Call** link = &open_;
      while (*link != &call) link = &(*link)->below;
      *link = call.below;
    }
    left_.wait(lock, [&call] { return call.joined == 0; });
  }
  if (call.error) std::rethrow_exception(call.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::sized(std::size_t threads) {
  if (threads == 0) return shared();
  static std::mutex cache_mutex;
  // Deliberately leaked: sized pools may be requested from static
  // destructors of other translation units, so their lifetime must not
  // depend on static destruction order. The OS reclaims the threads.
  static auto* cache = new std::vector<std::unique_ptr<ThreadPool>>();
  std::lock_guard lock(cache_mutex);
  for (const auto& pool : *cache) {
    if (pool->size() == threads) return *pool;
  }
  cache->push_back(std::make_unique<ThreadPool>(threads));
  return *cache->back();
}

ThreadPool& ThreadPool::current() {
  return current_pool != nullptr ? *current_pool : shared();
}

}  // namespace flip
