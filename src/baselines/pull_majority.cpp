#include "baselines/pull_majority.hpp"

#include <cmath>
#include <stdexcept>

namespace flip {

PullMajorityDynamics::PullMajorityDynamics(std::size_t n,
                                           PullMajorityConfig config,
                                           NoiseChannel& channel,
                                           const StreamKey& key)
    : config_(std::move(config)),
      channel_(channel),
      key_(key),
      pop_(n),
      next_(n, 0) {
  if (config_.max_rounds == 0) {
    throw std::invalid_argument("PullMajorityDynamics: max_rounds must be set");
  }
  if (config_.initial_correct_fraction < 0.0 ||
      config_.initial_correct_fraction > 1.0) {
    throw std::invalid_argument(
        "PullMajorityDynamics: initial_correct_fraction out of [0,1]");
  }
  const auto correct_count = static_cast<std::size_t>(
      std::llround(config_.initial_correct_fraction * static_cast<double>(n)));
  for (AgentId a = 0; a < n; ++a) {
    pop_.set_opinion(a, a < correct_count ? config_.correct
                                          : flip_opinion(config_.correct));
  }
}

Opinion PullMajorityDynamics::sample_opinion(CounterRng& rng) {
  const auto who =
      static_cast<AgentId>(uniform_index(rng, pop_.size()));
  // The pulled opinion crosses the same noisy channel as a pushed message;
  // erasures (possible only with an ErasureChannel) re-sample.
  for (;;) {
    const auto seen = channel_.transmit(pop_.opinion(who), rng);
    if (seen) return *seen;
  }
}

void PullMajorityDynamics::step(Round r) {
  const std::size_t n = pop_.size();
  const StreamKey round_key = round_stream_key(key_, RngPurpose::kProtocol, r);
  for (AgentId a = 0; a < n; ++a) {
    CounterRng rng(round_key, a);
    int ones = 0;
    if (config_.rule == PullRule::kTwoPlusOwn) {
      if (pop_.opinion(a) == Opinion::kOne) ++ones;
      if (sample_opinion(rng) == Opinion::kOne) ++ones;
      if (sample_opinion(rng) == Opinion::kOne) ++ones;
    } else {
      for (int i = 0; i < 3; ++i) {
        if (sample_opinion(rng) == Opinion::kOne) ++ones;
      }
    }
    next_[a] = ones >= 2 ? 1 : 0;
  }
  // Synchronous update: all agents switch simultaneously.
  for (AgentId a = 0; a < n; ++a) {
    next_[a] ? pop_.set_opinion(a, Opinion::kOne)
             : pop_.set_opinion(a, Opinion::kZero);
  }
}

PullMajorityResult PullMajorityDynamics::run() {
  PullMajorityResult result;
  const Round probe_every =
      std::max<Round>(1, config_.max_rounds / 64);
  for (Round r = 0; r < config_.max_rounds; ++r) {
    step(r);
    if (r % probe_every == 0) {
      result.trajectory.push_back(
          {r, pop_.correct_fraction(config_.correct)});
    }
    result.rounds = r + 1;
    const std::size_t good = pop_.count(config_.correct);
    if (good == pop_.size() || good == 0) {
      result.consensus = true;
      result.correct = good == pop_.size();
      break;
    }
  }
  result.final_correct_fraction = pop_.correct_fraction(config_.correct);
  if (!result.consensus) {
    result.correct = false;
  }
  return result;
}

}  // namespace flip
