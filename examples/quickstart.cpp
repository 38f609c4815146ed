// Quickstart: solve noisy broadcast with the library's public API.
//
//   $ ./quickstart [n] [eps] [seed]
//
// One source agent knows the correct opinion B. Every message is one bit
// and is flipped in transit with probability 1/2 - eps. The two-stage
// "breathe before speaking" protocol still delivers B to everyone in
// O(log n / eps^2) rounds (Feinerman, Haeupler, Korman; PODC 2014).

#include <cstdlib>
#include <iostream>

#include "core/breathe.hpp"
#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;
  const double eps = argc > 2 ? std::strtod(argv[2], nullptr) : 0.2;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  // 1. Build the phase schedule for this population size and noise level.
  const flip::Params params = flip::Params::calibrated(n, eps);
  std::cout << params.describe() << "\n\n";

  // 2. Wire up the Flip model: a binary symmetric channel with crossover
  //    probability 1/2 - eps and the synchronous push-gossip engine. All
  //    randomness of the run derives from one trial key; with the same
  //    (seed, trial 0) this is trial 0 of `flipsim --scenario broadcast`.
  const flip::StreamKey key = flip::trial_stream_key(seed, 0);
  flip::BinarySymmetricChannel channel(eps);
  flip::Engine engine(n, channel, key);

  // 3. Run the protocol: agent 0 is the source holding B = 1.
  flip::BreatheProtocol protocol(params, flip::broadcast_config(), key);
  const flip::Metrics metrics = engine.run(protocol, protocol.total_rounds());

  // 4. Report.
  const double correct =
      protocol.population().correct_fraction(flip::Opinion::kOne);
  std::cout << "rounds          : " << metrics.rounds << "  ("
            << static_cast<double>(metrics.rounds) /
                   flip::theory::round_unit(n, eps)
            << " x log(n)/eps^2)\n"
            << "messages (bits) : " << metrics.messages_sent << "  ("
            << static_cast<double>(metrics.messages_sent) /
                   flip::theory::message_unit(n, eps)
            << " x n*log(n)/eps^2)\n"
            << "flipped in transit: " << metrics.flipped << "\n"
            << "correct agents  : " << correct * 100.0 << "%\n"
            << (protocol.succeeded() ? "SUCCESS: everyone holds B"
                                     : "FAILURE: dissent remains")
            << "\n";
  return protocol.succeeded() ? 0 : 1;
}
