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
// static channel, with its shard phases inline or on a ThreadPool;
// tests/trial_arena_test.cpp holds this with a counting global allocator.
//
// Each thread has one arena. A thread runs one trial at a time: a
// ThreadPool worker joins a call only when it is idle, and a caller
// waiting on its own parallel_for (a sharded trial's shard phases) runs
// nothing else. A second lease on a thread whose arena is leased is a bug,
// and throws std::logic_error.

#include "sim/batch_engine.hpp"

namespace flip {

/// Everything one warm Monte-Carlo trial needs, pooled per worker thread.
struct TrialArena {
  BatchEngine engine;
  /// Reused run_breathe output: vectors reset keep-capacity per trial.
  BreatheFastResult result;
};

/// RAII lease on the calling thread's persistent TrialArena. Worker
/// threads of the sized/shared ThreadPools live for the whole process, so
/// every sweep cell of every request recycles the same per-worker scratch.
class TrialArenaLease {
 public:
  /// Throws std::logic_error when this thread's arena is already leased.
  TrialArenaLease();
  ~TrialArenaLease();
  TrialArenaLease(const TrialArenaLease&) = delete;
  TrialArenaLease& operator=(const TrialArenaLease&) = delete;

  [[nodiscard]] TrialArena& operator*() const noexcept { return *arena_; }
  [[nodiscard]] TrialArena* operator->() const noexcept { return arena_; }

 private:
  TrialArena* arena_;
};

}  // namespace flip
