#pragma once
// Section 1.6 strawman #2: "immediately forward the message you just
// received". An agent adopts the first bit it hears as its opinion and
// starts pushing it every round from the next round on. Information reaches
// the typical agent over a ~log n deep relay tree, so its correctness decays
// as 1/2 + (2 eps)^depth (theory::relay_correct_probability) — the protocol
// spreads fast but spreads noise.
//
// With a PerfectChannel this same class is the classic noiseless push
// rumor-spreading baseline (~log2 n + ln n rounds to inform everyone).

#include <vector>

#include "core/breathe.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"

namespace flip {

struct ForwardConfig {
  Opinion correct = Opinion::kOne;
  std::vector<Seed> initial;
  /// Stop after this many rounds (the protocol itself never "finishes";
  /// opinions are frozen once adopted).
  Round duration = 0;
  /// If true, stop as soon as every agent holds an opinion (used when
  /// measuring spreading time rather than final correctness).
  bool stop_when_all_informed = false;
};

class ForwardGossipProtocol final : public Protocol {
 public:
  ForwardGossipProtocol(std::size_t n, ForwardConfig config);

  void collect_sends(Round r, std::vector<Message>& out) override;
  void deliver(AgentId to, Opinion bit, Round r) override;
  void end_round(Round r) override;
  [[nodiscard]] bool done(Round r) const override;
  [[nodiscard]] double current_bias() const override;
  [[nodiscard]] std::size_t current_opinionated() const override;

  [[nodiscard]] const Population& population() const noexcept { return pop_; }
  [[nodiscard]] bool all_informed() const noexcept;
  /// First round after which every agent held an opinion (0 if never).
  [[nodiscard]] Round informed_round() const noexcept {
    return informed_round_;
  }

 private:
  ForwardConfig config_;
  Population pop_;
  /// Agents that adopted an opinion this round (start sending next round).
  std::vector<AgentId> fresh_;
  std::vector<AgentId> senders_;
  Round informed_round_ = 0;
};

}  // namespace flip
