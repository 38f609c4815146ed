#pragma once
// Section 1.6 strawman #1 (and the Section 1.4 remark): nobody relays;
// every agent stays silent and waits for enough samples directly from the
// source, then takes their majority. Perfectly reliable — every sample has
// advantage eps — but the source pushes one message per round, so informing
// all n agents to w.h.p. confidence takes Theta(n log n / eps^2) rounds.

#include <vector>

#include "net/message.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"

namespace flip {

struct SilentConfig {
  Opinion correct = Opinion::kOne;
  AgentId source = 0;
  /// Samples an agent requires before deciding; odd to avoid ties.
  std::uint64_t samples_needed = 0;
  /// Hard stop (0 = run to completion; beware: Theta(n log n / eps^2)).
  Round max_rounds = 0;
};

class SilentListeningProtocol final : public Protocol {
 public:
  SilentListeningProtocol(std::size_t n, SilentConfig config);

  void collect_sends(Round r, std::vector<Message>& out) override;
  void deliver(AgentId to, Opinion bit, Round r) override;
  void end_round(Round r) override;
  [[nodiscard]] bool done(Round r) const override;
  [[nodiscard]] double current_bias() const override;
  [[nodiscard]] std::size_t current_opinionated() const override;

  [[nodiscard]] const Population& population() const noexcept { return pop_; }
  [[nodiscard]] std::size_t decided() const noexcept { return decided_; }
  [[nodiscard]] bool all_decided() const noexcept {
    return decided_ + 1 >= pop_.size();  // the source never "decides"
  }

 private:
  SilentConfig config_;
  Population pop_;
  std::vector<std::uint32_t> samples_;
  std::vector<std::uint32_t> ones_;
  std::size_t decided_ = 0;
};

}  // namespace flip
