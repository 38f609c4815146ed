#pragma once
// Per-thread pooled trial scratch — the "no cold-start per request" core
// of the sweep service. A TrialArena generalizes the engine-level
// Population::reuse mode one level up: it owns the thread's persistent
// BatchEngine (per-shard sender lists, touched / activation scratch,
// scatter buckets, packed counter arrays — all recycled by
// prepare_breathe) AND the trial-level result object whose vectors
// (metrics probe series, stage stats) are reset keep-capacity between
// executions. Every breathe execution of the scenario layer, on either
// substrate, fills a leased arena's result (workload/scenarios.cpp).
//
// After one warm-up trial of a cell shape, every further trial through the
// arena performs zero heap allocations on the batch fast path with a
// static channel, provided the shard phases run inline (one shard, or
// pool == nullptr); tests/trial_arena_test.cpp holds this with a counting
// global allocator. On the shared ThreadPool a sharded trial still
// allocates in every parallel_for call (perfbench reports it as
// sim.trial_arena.allocs_per_trial_s4).
//
// Arenas are leased, not referenced: ThreadPool's helping wait can make a
// thread pick up ANOTHER trial while its own arena is mid-run (sharded
// trials nested in parallel sweeps), so the thread keeps a stack of
// arenas and a lease hands out the first idle one.

#include "sim/batch_engine.hpp"

namespace flip {

/// Everything one warm Monte-Carlo trial needs, pooled per worker thread.
struct TrialArena {
  BatchEngine engine;
  /// Reused run_breathe output: vectors reset keep-capacity per trial.
  BreatheFastResult result;
};

namespace detail {
/// The calling thread's arena stack (thread_local). acquire pushes a
/// lease — growing the stack only the first time a depth is reached —
/// and release pops it. Strict LIFO: leases are scoped objects.
[[nodiscard]] TrialArena* acquire_arena();
void release_arena() noexcept;
}  // namespace detail

/// RAII lease on the calling thread's persistent TrialArena. Worker
/// threads of the sized/shared ThreadPools live for the whole process, so
/// every sweep cell of every request recycles the same per-worker scratch.
class TrialArenaLease {
 public:
  TrialArenaLease() : arena_(detail::acquire_arena()) {}
  ~TrialArenaLease() { detail::release_arena(); }
  TrialArenaLease(const TrialArenaLease&) = delete;
  TrialArenaLease& operator=(const TrialArenaLease&) = delete;

  [[nodiscard]] TrialArena& operator*() const noexcept { return *arena_; }
  [[nodiscard]] TrialArena* operator->() const noexcept { return arena_; }

 private:
  TrialArena* arena_;
};

}  // namespace flip
