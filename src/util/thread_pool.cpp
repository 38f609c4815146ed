#include "util/thread_pool.hpp"

#include <algorithm>

namespace flip {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
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
    opened_.wait(lock, [this] { return stopping_ || may_join(); });
    if (stopping_) return;
    Call& call = *open_;
    if (--call.openings == 0) open_ = call.below;
    ++call.joined;
    ++joined_;
    lock.unlock();
    drain(call);
    // Leave before retaking the mutex, so the next call finds this worker
    // gone at once (it re-checks for a call to join below). Only the last
    // one out wakes the callers; nothing here touches the call after the
    // decrement, as its caller may return as soon as joined is 0.
    --joined_;
    const bool last = --call.joined == 0;
    lock.lock();
    if (last) left_.notify_all();
  }
}

void ThreadPool::drain(Call& call) {
  for (;;) {
    const std::size_t i = call.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= call.count) return;
    try {
      call.thunk(call.body, i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!call.error) call.error = std::current_exception();
      call.next.store(call.count, std::memory_order_relaxed);  // start no more
      return;
    }
  }
}

void ThreadPool::run(std::size_t count, void* body, Thunk thunk) {
  const std::size_t openings = std::min(count, workers_.size());
  if (openings <= 1) {
    for (std::size_t i = 0; i < count; ++i) thunk(body, i);
    return;
  }
  Call call{body, thunk, count};
  std::unique_lock lock(mutex_);
  call.openings = openings - 1;
  call.below = open_;
  open_ = &call;
  const bool wake = may_join();
  lock.unlock();
  if (wake) opened_.notify_all();
  drain(call);
  lock.lock();
  if (call.openings > 0) {  // still listed: close the openings left
    Call** link = &open_;
    while (*link != &call) link = &(*link)->below;
    *link = call.below;
  }
  left_.wait(lock, [&call] { return call.joined == 0; });
  lock.unlock();
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

}  // namespace flip
