#pragma once
// The Angluin–Aspnes–Eisenstat three-state approximate-majority protocol
// ([6] in the paper). Each round every agent pulls the state of one
// uniformly random agent and applies:
//
//     own 0, saw 1  -> blank          own 1, saw 0  -> blank
//     own blank, saw 0/1 -> adopt it  otherwise     -> unchanged
//
// Noiselessly this converges to the initial majority in O(log n) rounds.
// The paper points out it cannot be used in the Flip model because it
// requires THREE symbols while messages carry one bit. To demonstrate the
// failure mode, the noisy variant here misreads a pulled symbol with
// probability 1/2 - eps, replacing it with one of the other two symbols
// uniformly — the closest three-symbol analogue of the binary symmetric
// channel (a substitution documented in DESIGN.md).

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

namespace flip {

enum class AAEState : std::uint8_t { kZero = 0, kOne = 1, kBlank = 2 };

struct AAEConfig {
  Opinion correct = Opinion::kOne;
  /// Initially opinionated agents; the rest start blank. Majority-consensus
  /// workloads put |A| agents here with the prescribed majority split.
  std::size_t initial_correct = 0;
  std::size_t initial_wrong = 0;
  /// 0 disables misreads (the protocol's native noiseless setting).
  double eps = 0.0;
  Round max_rounds = 0;
};

struct AAEResult {
  bool consensus = false;  ///< all agents in the same non-blank state
  bool correct = false;
  Round rounds = 0;
  double final_correct_fraction = 0.0;
};

class ThreeStateAAE {
 public:
  /// Agent a's draws in round r (peer pick, then misread coins) come from
  /// its (r, a, kProtocol) stream of the trial key `key`.
  ThreeStateAAE(std::size_t n, AAEConfig config, const StreamKey& key);

  AAEResult run();

  [[nodiscard]] std::size_t count(AAEState s) const noexcept;

 private:
  [[nodiscard]] AAEState noisy_read(AAEState actual, CounterRng& rng) const;
  void step(Round r);

  AAEConfig config_;
  StreamKey key_;
  std::vector<AAEState> state_;
  std::vector<AAEState> next_;
};

}  // namespace flip
