#include "core/two_step.hpp"

#include <cmath>
#include <stdexcept>

#include "util/math.hpp"

namespace flip {

double majority_correct_exact(const SamplingConfig& cfg) {
  return binomial_tail_ge(cfg.gamma(), cfg.r + 1, cfg.sample_correct_prob());
}

double majority_correct_via_two_step(const SamplingConfig& cfg) {
  // After the first step the number of WRONG players W0 ~ Binomial(gamma, 1/2).
  // In the second step each wrong player flips to correct independently with
  // probability 2b, so the final wrong count W = W0 - Flips with
  // Flips | W0 ~ Binomial(W0, 2b). Majority correct <=> W <= r.
  const std::uint64_t gamma = cfg.gamma();
  const double flip_p = 2.0 * cfg.b();
  double total = 0.0;
  for (std::uint64_t w0 = 0; w0 <= gamma; ++w0) {
    const double p_w0 = binomial_pmf(gamma, w0, 0.5);
    if (p_w0 < 1e-18) continue;
    double p_fix;
    if (w0 <= cfg.r) {
      p_fix = 1.0;  // already a correct majority; flips can only help
    } else {
      // Need at least w0 - r flips among w0 wrong players.
      p_fix = binomial_tail_ge(w0, w0 - cfg.r, flip_p);
    }
    total += p_w0 * p_fix;
  }
  return total;
}

double majority_correct_monte_carlo(const SamplingConfig& cfg,
                                    std::uint64_t trials, CounterRng& rng) {
  if (trials == 0) {
    throw std::invalid_argument("majority_correct_monte_carlo: trials == 0");
  }
  const std::uint64_t gamma = cfg.gamma();
  const double flip_p = 2.0 * cfg.b();
  std::uint64_t correct = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    // First step: fair coins decide each player's opinion.
    std::uint64_t wrong = 0;
    for (std::uint64_t j = 0; j < gamma; ++j) {
      if (bernoulli(rng, 0.5)) ++wrong;
    }
    // Second step: each wrong player independently sees B w.p. 2b.
    std::uint64_t flips = 0;
    for (std::uint64_t j = 0; j < wrong; ++j) {
      if (bernoulli(rng, flip_p)) ++flips;
    }
    if (wrong - flips <= cfg.r) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(trials);
}

double prob_U_x(std::uint64_t r, std::uint64_t x) {
  const std::uint64_t gamma = 2 * r + 1;
  double total = 0.0;
  for (std::uint64_t i = 1; i <= x; ++i) {
    total += binomial_pmf(gamma, r + i, 0.5);
  }
  return total;
}

double claim_2_12_bound(std::uint64_t r, std::uint64_t x) {
  if (r == 0) throw std::invalid_argument("claim_2_12_bound: r == 0");
  return static_cast<double>(x) / (10.0 * std::sqrt(static_cast<double>(r)));
}

double prob_F_x_given_w(std::uint64_t w, std::uint64_t x, double b) {
  return binomial_tail_ge(w, x, 2.0 * b);
}

DeltaRegime classify_delta(double eps, double delta) {
  // The proof's case split: small delta <= eps/2^20; medium up to 1/2^12;
  // large otherwise.
  const double small_cut = eps / 1048576.0;  // eps / 2^20
  const double medium_cut = 1.0 / 4096.0;    // 1 / 2^12
  if (delta <= small_cut) return DeltaRegime::kSmall;
  if (delta < medium_cut) return DeltaRegime::kMedium;
  return DeltaRegime::kLarge;
}

}  // namespace flip
