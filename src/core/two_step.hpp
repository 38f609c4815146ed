#pragma once
// Lemma 2.11's machinery: the probability that the majority of gamma = 2r+1
// noisy samples from a delta-biased population is correct, plus the
// "imaginary two-step process" the proof analyzes and the events of Claims
// 2.12 / 2.13. Exposed both exactly (binomial computations) and as Monte
// Carlo so experiment E6 can cross-check the proof's bounds.

#include <cstdint>

#include "util/rng.hpp"

namespace flip {

/// One sampling configuration of Lemma 2.11.
struct SamplingConfig {
  std::uint64_t r = 0;  ///< gamma = 2r+1 samples
  double eps = 0.0;     ///< channel advantage (flip prob 1/2 - eps)
  double delta = 0.0;   ///< population bias toward the correct opinion

  [[nodiscard]] std::uint64_t gamma() const noexcept { return 2 * r + 1; }
  /// Per-sample probability of being correct: 1/2 + b with b = 2*eps*delta.
  [[nodiscard]] double b() const noexcept { return 2.0 * eps * delta; }
  [[nodiscard]] double sample_correct_prob() const noexcept {
    return 0.5 + b();
  }
};

/// Exact P[majority of the gamma samples is correct]: the samples are iid
/// Bernoulli(1/2 + b), so this is P[Binomial(2r+1, 1/2+b) >= r+1].
double majority_correct_exact(const SamplingConfig& cfg);

/// Exact P[majority correct] computed THROUGH the imaginary two-step process
/// (first step: fair coins; second step: each wrong player flips to correct
/// independently with probability 2b). Must equal majority_correct_exact —
/// the process is an equivalent view — which a test asserts.
double majority_correct_via_two_step(const SamplingConfig& cfg);

/// Monte-Carlo estimate of P[majority correct] by simulating the literal
/// two-step process `trials` times.
double majority_correct_monte_carlo(const SamplingConfig& cfg,
                                    std::uint64_t trials, CounterRng& rng);

/// Claim 2.12: P(U_x) = P[first step leaves between r+1 and r+x wrong
/// players] — exactly sum_{i=1..x} C(2r+1, r+i) 2^-(2r+1).
double prob_U_x(std::uint64_t r, std::uint64_t x);

/// Claim 2.12's lower bound x / (10 sqrt(r)), valid for 1 <= x <= sqrt(r).
double claim_2_12_bound(std::uint64_t r, std::uint64_t x);

/// Claim 2.13 events: P[at least x of the w wrong players flip in the
/// second step], with per-player flip probability 2b.
double prob_F_x_given_w(std::uint64_t w, std::uint64_t x, double b);

/// Lemma 2.11's regime classifier, following the proof's case split.
enum class DeltaRegime { kSmall, kMedium, kLarge };
DeltaRegime classify_delta(double eps, double delta);

}  // namespace flip
