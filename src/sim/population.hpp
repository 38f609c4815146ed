#pragma once
// Opinion bookkeeping for one simulated population. Protocols own a
// Population; the experiment harness reads bias/correct-fraction from it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace flip {

/// Per-agent opinion state. An agent may hold no opinion yet (dormant in the
/// broadcast problem, outside the initial set A in majority-consensus).
class Population {
 public:
  /// n agents, all initially opinion-less. Precondition: n >= 2.
  explicit Population(std::size_t n);

  /// Allocation-free re-initialization: equivalent to constructing
  /// Population(n) but reusing the per-agent buffers. Used by the batch
  /// fast path to recycle one population across many trials.
  void reuse(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return opinion_.size(); }

  [[nodiscard]] bool has_opinion(AgentId a) const {
    return has_opinion_[a] != 0;
  }
  /// Raw per-agent has-opinion bytes, for the batch engine's noinline
  /// delivery loops (one byte read per message; the accessor call boundary
  /// would otherwise sit inside them).
  [[nodiscard]] const std::uint8_t* has_opinion_data() const noexcept {
    return has_opinion_.data();
  }
  [[nodiscard]] Opinion opinion(AgentId a) const {
    return static_cast<Opinion>(opinion_[a]);
  }

  void set_opinion(AgentId a, Opinion o);

  /// Aggregate-counter delta accumulated by sharded opinion updates.
  struct Delta {
    std::int64_t opinionated = 0;
    std::int64_t ones = 0;
    std::int64_t asleep = 0;  ///< churn: sleep/wake/join transitions
  };

  /// Sharded-update twin of set_opinion(): writes the per-agent bytes but
  /// accumulates the aggregate-counter changes into `delta` instead of the
  /// shared members. Safe to call concurrently for DISTINCT agents (each
  /// worker owns a disjoint agent range and its own Delta); merge the
  /// per-shard deltas with apply() once the workers have joined.
  void set_opinion_counted(AgentId a, Opinion o, Delta& delta) {
    if (!has_opinion_[a]) {
      has_opinion_[a] = 1;
      ++delta.opinionated;
    } else if (static_cast<Opinion>(opinion_[a]) == Opinion::kOne) {
      --delta.ones;
    }
    opinion_[a] = static_cast<std::uint8_t>(o);
    if (o == Opinion::kOne) ++delta.ones;
  }

  /// Folds one shard's Delta into the aggregate counters.
  void apply(const Delta& delta) noexcept {
    opinionated_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(opinionated_) + delta.opinionated);
    ones_ = static_cast<std::size_t>(static_cast<std::int64_t>(ones_) +
                                     delta.ones);
    asleep_ = static_cast<std::size_t>(static_cast<std::int64_t>(asleep_) +
                                       delta.asleep);
  }

  // Liveness (environment churn). Every agent starts awake; sleep/wake/join
  // events (core/environment.hpp) flip the per-agent flag. An asleep agent
  // keeps its opinion — liveness and opinion state are orthogonal.

  [[nodiscard]] bool awake(AgentId a) const { return awake_[a] != 0; }
  /// Raw per-agent awake bytes for the batch engine's noinline loops, like
  /// has_opinion_data().
  [[nodiscard]] const std::uint8_t* awake_data() const noexcept {
    return awake_.data();
  }
  /// Number of agents currently asleep (not participating).
  [[nodiscard]] std::size_t asleep() const noexcept { return asleep_; }

  void set_awake(AgentId a, bool awake) {
    asleep_ += (awake_[a] != 0) && !awake;
    asleep_ -= (awake_[a] == 0) && awake;
    awake_[a] = awake ? 1 : 0;
  }

  /// Sharded-update twin of set_awake(): writes the per-agent byte but
  /// accumulates the asleep-count change into `delta`. Same concurrency
  /// rule as set_opinion_counted: distinct agents, own Delta, merge with
  /// apply() after the barrier.
  void set_awake_counted(AgentId a, bool awake, Delta& delta) {
    delta.asleep += (awake_[a] != 0) && !awake;
    delta.asleep -= (awake_[a] == 0) && awake;
    awake_[a] = awake ? 1 : 0;
  }

  /// Number of agents currently holding any opinion.
  [[nodiscard]] std::size_t opinionated() const noexcept {
    return opinionated_;
  }

  /// Number of agents holding opinion o.
  [[nodiscard]] std::size_t count(Opinion o) const noexcept;

  /// Fraction of ALL n agents whose opinion equals `correct`.
  [[nodiscard]] double correct_fraction(Opinion correct) const noexcept;

  /// Bias toward `correct` among opinionated agents:
  ///   (#correct - #wrong) / (2 * #opinionated),
  /// the paper's majority-bias (Section 1.3.1). 0 if nobody has an opinion.
  [[nodiscard]] double bias(Opinion correct) const noexcept;

  /// True iff every agent holds opinion `correct` — the success condition of
  /// both problems.
  [[nodiscard]] bool unanimous(Opinion correct) const noexcept;

 private:
  std::vector<std::uint8_t> has_opinion_;
  std::vector<std::uint8_t> opinion_;
  std::vector<std::uint8_t> awake_;
  std::size_t opinionated_ = 0;
  std::size_t ones_ = 0;  // # agents with opinion kOne, kept incrementally
  std::size_t asleep_ = 0;
};

}  // namespace flip
