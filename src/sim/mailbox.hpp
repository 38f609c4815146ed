#pragma once
// One-round message routing with the Flip model's reception rule:
// "If an agent receives several messages at the same round, it can only
//  accept one of them (chosen uniformly at random), and all other messages
//  are dropped." (Section 1.3.2)
//
// Two acceptance implementations coexist, both uniform among arrivals:
//
//  * offer(): priority-keyed acceptance — every message carries a 64-bit
//    priority drawn from its SENDER's counter stream, and a recipient keeps
//    the arrival with the smallest (priority, sender) pair. min() is
//    commutative and associative, so the kept message is independent of
//    arrival order — the property the repo's determinism contract (same
//    per-agent stream => same results across engines, threads, and shards)
//    rests on. Ties break on the sender id, so acceptance is exact even in
//    the 2^-64 priority-collision case. This is the path the engines use.
//  * push()/push_to(): classic reservoir sampling (the k-th arrival replaces
//    the kept one w.p. 1/k, drawn from a sequential stream). Kept for tests
//    and direct-delivery baselines; its result depends on arrival order.
//
// Reset between rounds is O(#touched recipients), not O(n).

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "util/rng.hpp"

namespace flip {

/// Composes the 64-bit acceptance word of one message: the top 32 bits of
/// the sender's priority draw, then the opinion bit, then the sender id.
/// Taking min() over these words implements "accept a uniformly random
/// arrival" in one compare: the 32-bit priorities tie with probability
/// 2^-32 per pair, and a tie resolves deterministically by (bit, sender) —
/// acceptance stays exact, order-independent, and identical on every
/// substrate, while a recipient's whole acceptance state fits one word.
[[nodiscard]] constexpr std::uint64_t acceptance_word(
    std::uint64_t priority_draw, std::uint32_t bit_and_sender) noexcept {
  return (priority_draw & 0xffff'ffff'0000'0000ULL) | bit_and_sender;
}
[[nodiscard]] constexpr std::uint64_t acceptance_word(
    std::uint64_t priority_draw, Opinion bit, AgentId sender) noexcept {
  return acceptance_word(
      priority_draw,
      (bit == Opinion::kOne ? 0x8000'0000u : 0u) | sender);
}

class Mailbox {
 public:
  /// Routing fabric for a population of n agents. Precondition: n >= 2.
  explicit Mailbox(std::size_t n);

  /// Routes one message from `msg.sender` to a uniformly random other agent,
  /// applying the reservoir acceptance rule at the destination. Defined
  /// inline: this is the per-message hot path of every engine round.
  void push(const Message& msg, Xoshiro256& rng) {
    // Uniform over the n-1 agents other than the sender.
    auto to = static_cast<AgentId>(
        uniform_index(rng, arrival_count_.size() - 1));
    if (to >= msg.sender) ++to;
    push_to(to, msg, rng);
  }

  /// Delivers a message directly to `to` (used by tests and by baselines
  /// that model non-anonymous delivery); same acceptance rule applies.
  void push_to(AgentId to, const Message& msg, Xoshiro256& rng) {
    ++pushed_;
    const std::uint32_t k = ++arrival_count_[to];
    if (k == 1) {
      touched_.push_back(to);
      kept_[to] = msg;
    } else if (uniform_index(rng, k) == 0) {
      // Reservoir step: the k-th arrival replaces the kept one w.p. 1/k,
      // making the kept message uniform among all k arrivals.
      kept_[to] = msg;
    }
  }

  /// Priority-keyed delivery to `to`: keeps the arrival with the smallest
  /// (priority, sender) pair. Priorities must be i.i.d. uniform 64-bit
  /// words (the engines draw them from each sender's counter stream), which
  /// makes the kept message uniform among arrivals AND independent of the
  /// order offer() is called in.
  void offer(AgentId to, AgentId sender, Opinion bit, std::uint64_t priority) {
    ++pushed_;
    const std::uint32_t k = ++arrival_count_[to];
    if (k == 1) {
      touched_.push_back(to);
      priority_[to] = priority;
      kept_[to] = Message{sender, bit};
    } else if (priority < priority_[to] ||
               (priority == priority_[to] && sender < kept_[to].sender)) {
      priority_[to] = priority;
      kept_[to] = Message{sender, bit};
    }
  }

  /// Recipients that accepted a message this round, in touch order.
  [[nodiscard]] const std::vector<AgentId>& recipients() const noexcept {
    return touched_;
  }

  /// The message accepted by `to` this round. Precondition: `to` appears in
  /// recipients().
  [[nodiscard]] const Message& accepted(AgentId to) const {
    return kept_[to];
  }

  /// Messages that arrived at `to` this round (accepted + dropped).
  [[nodiscard]] std::uint32_t arrivals(AgentId to) const noexcept {
    return arrival_count_[to];
  }

  [[nodiscard]] std::uint64_t pushed_this_round() const noexcept {
    return pushed_;
  }
  /// Arrivals beyond the first at each recipient — the model's drops.
  [[nodiscard]] std::uint64_t dropped_this_round() const noexcept {
    return pushed_ - touched_.size();
  }

  /// Clears round state. Must be called between rounds.
  void reset() noexcept;

  [[nodiscard]] std::size_t population() const noexcept {
    return arrival_count_.size();
  }

 private:
  std::vector<std::uint32_t> arrival_count_;
  std::vector<Message> kept_;
  std::vector<std::uint64_t> priority_;  ///< offer(): best priority so far
  std::vector<AgentId> touched_;
  std::uint64_t pushed_ = 0;
};

}  // namespace flip
