#pragma once
// Pull-based majority dynamics from the related-work section, run through
// the same noisy channel so experiment E9 can show how they fare when their
// noiseless assumptions are violated:
//
//  * kTwoPlusOwn — Doerr et al. [22]: each round every agent samples the
//    opinions of two uniformly random agents and re-sets its opinion to the
//    majority of {own, sample1, sample2}. Converges in O(log n) rounds
//    noiselessly given initial bias Omega(sqrt(log n / n)).
//  * kThreeSamples — the 3-majority dynamics (Becchetti et al. [11]): adopt
//    the majority of three sampled opinions (own excluded).
//
// These baselines are pull-model (they inspect other agents' opinions), so
// they run their own synchronous loop rather than the push Engine; every
// sampled opinion still passes through the NoiseChannel.

#include <cstdint>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "sim/metrics.hpp"
#include "sim/population.hpp"
#include "util/rng.hpp"

namespace flip {

enum class PullRule { kTwoPlusOwn, kThreeSamples };

struct PullMajorityConfig {
  Opinion correct = Opinion::kOne;
  PullRule rule = PullRule::kTwoPlusOwn;
  /// Initial fraction of agents holding the correct opinion (all agents are
  /// opinionated; these dynamics assume a fully opinionated population).
  double initial_correct_fraction = 0.5;
  Round max_rounds = 0;
};

/// Result of one run.
struct PullMajorityResult {
  bool consensus = false;        ///< everyone agreed on SOME opinion
  bool correct = false;          ///< ... and it was the correct one
  Round rounds = 0;              ///< rounds executed
  double final_correct_fraction = 0.0;
  std::vector<Sample> trajectory;  ///< correct fraction over time (sparse)
};

class PullMajorityDynamics {
 public:
  /// Agents' opinions are dealt deterministically to match
  /// initial_correct_fraction, then positions are irrelevant (the dynamics
  /// sample uniformly). Agent a's draws in round r (peer picks and the
  /// channel noise on each pulled opinion) come from its (r, a, kProtocol)
  /// stream of the trial key `key`. channel must outlive run().
  PullMajorityDynamics(std::size_t n, PullMajorityConfig config,
                       NoiseChannel& channel, const StreamKey& key);

  PullMajorityResult run();

  [[nodiscard]] const Population& population() const noexcept { return pop_; }

 private:
  [[nodiscard]] Opinion sample_opinion(CounterRng& rng);
  void step(Round r);

  PullMajorityConfig config_;
  NoiseChannel& channel_;
  StreamKey key_;
  Population pop_;
  std::vector<std::uint8_t> next_;
};

}  // namespace flip
