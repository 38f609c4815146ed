#pragma once
// The noisy voter model with a zealot source (the physics literature's
// approach to broadcast, refs [49,50] in the paper): every opinionated
// agent pushes its opinion each round; a receiver simply ADOPTS the
// (noisy) bit it accepted. The zealots (initial set) never change opinion.
// The paper predicts long convergence times — the noise keeps re-randomizing
// opinions and the zealot's pull is O(1/n) per round — so the interesting
// measurements are the correct-fraction plateau and time-to-plateau.

#include <vector>

#include "core/breathe.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"

namespace flip {

struct VoterConfig {
  Opinion correct = Opinion::kOne;
  std::vector<Seed> zealots;
  Round duration = 0;  ///< voter dynamics never terminate on their own
};

class NoisyVoterProtocol final : public Protocol {
 public:
  NoisyVoterProtocol(std::size_t n, VoterConfig config);

  void collect_sends(Round r, std::vector<Message>& out) override;
  void deliver(AgentId to, Opinion bit, Round r) override;
  void end_round(Round r) override;
  [[nodiscard]] bool done(Round r) const override;
  [[nodiscard]] double current_bias() const override;
  [[nodiscard]] std::size_t current_opinionated() const override;

  [[nodiscard]] const Population& population() const noexcept { return pop_; }

 private:
  VoterConfig config_;
  Population pop_;
  std::vector<std::uint8_t> is_zealot_;
  std::vector<AgentId> senders_;
  std::vector<AgentId> fresh_;
};

}  // namespace flip
