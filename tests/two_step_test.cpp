#include "core/two_step.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/theory.hpp"
#include "util/math.hpp"

namespace flip {
namespace {

TEST(SamplingConfigTest, DerivedQuantities) {
  SamplingConfig cfg{/*r=*/10, /*eps=*/0.25, /*delta=*/0.1};
  EXPECT_EQ(cfg.gamma(), 21u);
  EXPECT_DOUBLE_EQ(cfg.b(), 0.05);
  EXPECT_DOUBLE_EQ(cfg.sample_correct_prob(), 0.55);
}

TEST(TwoStepTest, ExactMatchesDirectBinomial) {
  // The imaginary two-step process is an equivalent view of the gamma iid
  // samples — the lemma's key construction. Verify the two exact
  // computations agree across regimes.
  for (std::uint64_t r : {5ULL, 20ULL, 100ULL}) {
    for (double eps : {0.1, 0.3}) {
      for (double delta : {0.001, 0.05, 0.3}) {
        SamplingConfig cfg{r, eps, delta};
        EXPECT_NEAR(majority_correct_exact(cfg),
                    majority_correct_via_two_step(cfg), 1e-9)
            << "r=" << r << " eps=" << eps << " delta=" << delta;
      }
    }
  }
}

TEST(TwoStepTest, MonteCarloAgreesWithExact) {
  SamplingConfig cfg{/*r=*/25, /*eps=*/0.2, /*delta=*/0.1};
  CounterRng rng(trial_stream_key(99, 0));
  const double mc = majority_correct_monte_carlo(cfg, 200000, rng);
  EXPECT_NEAR(mc, majority_correct_exact(cfg), 0.005);
}

TEST(TwoStepTest, ZeroBiasGivesHalf) {
  SamplingConfig cfg{/*r=*/30, /*eps=*/0.2, /*delta=*/0.0};
  EXPECT_NEAR(majority_correct_exact(cfg), 0.5, 1e-9);
}

TEST(TwoStepTest, MonotoneInDelta) {
  double prev = 0.0;
  for (double delta : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4}) {
    SamplingConfig cfg{/*r=*/50, /*eps=*/0.2, delta};
    const double p = majority_correct_exact(cfg);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(TwoStepTest, Lemma211LowerBoundHolds) {
  // The lemma's bound min{1/2 + 4 delta, 1/2 + 1/100} with the paper's
  // sample count r = ceil(2^22 / eps^2). Checking the exact probability
  // dominates the bound across the three delta regimes.
  const double eps = 0.45;  // keep gamma small enough to compute exactly
  const auto r =
      static_cast<std::uint64_t>(std::ceil(4194304.0 / (eps * eps)));
  for (double delta :
       {1e-8, 1e-7, eps / 1048576.0, 1e-5, 1e-4, 1.0 / 4096.0, 0.01, 0.1}) {
    SamplingConfig cfg{r, eps, delta};
    EXPECT_GE(majority_correct_exact(cfg) + 1e-12,
              theory::lemma_2_11_lower_bound(delta))
        << "delta=" << delta;
  }
}

TEST(TwoStepTest, CalibratedSampleCountStillBoosts) {
  // With the calibrated r = ceil(2/eps^2), the exact majority probability
  // must still exceed delta itself for the boosting regime the experiments
  // run in (delta >= ~1e-3) — the property Stage II actually needs.
  for (double eps : {0.15, 0.25, 0.35}) {
    const auto r = static_cast<std::uint64_t>(std::ceil(2.0 / (eps * eps)));
    for (double delta : {0.002, 0.01, 0.05, 0.1}) {
      SamplingConfig cfg{r, eps, delta};
      EXPECT_GT(majority_correct_exact(cfg), 0.5 + 1.2 * delta)
          << "eps=" << eps << " delta=" << delta;
    }
  }
}

TEST(ProbUxTest, MatchesBinomialSum) {
  const std::uint64_t r = 12;
  for (std::uint64_t x = 1; x <= 3; ++x) {
    double expected = 0.0;
    for (std::uint64_t i = 1; i <= x; ++i) {
      expected += binomial_pmf(2 * r + 1, r + i, 0.5);
    }
    EXPECT_NEAR(prob_U_x(r, x), expected, 1e-12);
  }
}

TEST(ProbUxTest, Claim212LowerBoundHolds) {
  // P(U_x) > x / (10 sqrt(r)) for 1 <= x <= sqrt(r).
  for (std::uint64_t r : {16ULL, 100ULL, 1024ULL, 10000ULL}) {
    const auto x_max =
        static_cast<std::uint64_t>(std::sqrt(static_cast<double>(r)));
    for (std::uint64_t x = 1; x <= x_max; x += std::max<std::uint64_t>(1, x_max / 4)) {
      EXPECT_GT(prob_U_x(r, x), claim_2_12_bound(r, x))
          << "r=" << r << " x=" << x;
    }
  }
}

TEST(ProbFxTest, Claim213FirstPart) {
  // If r <= 2/b then P(F_1 | U_1) >= r b / e^4. P(F_1 | U_1) is at least
  // the probability that >= 1 of r+1 players flips with prob 2b each.
  const double b = 0.001;
  const std::uint64_t r = 1000;  // r b = 1 <= 2
  const double p_f1 = prob_F_x_given_w(r + 1, 1, b);
  EXPECT_GE(p_f1, static_cast<double>(r) * b / std::exp(4.0));
}

TEST(ProbFxTest, Claim213SecondPart) {
  // If r b > 2 then for x <= ceil(r b), P(F_x | U_x) >= 1/3 (we check with
  // w = r + x wrong players, the worst case within U_x).
  const double b = 0.01;
  const std::uint64_t r = 500;  // r b = 5 > 2
  const auto x = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(r) * b));
  EXPECT_GE(prob_F_x_given_w(r + 1, x, b), 1.0 / 3.0);
}

TEST(ClassifyDeltaTest, RegimeBoundaries) {
  const double eps = 0.2;
  EXPECT_EQ(classify_delta(eps, eps / 2097152.0), DeltaRegime::kSmall);
  EXPECT_EQ(classify_delta(eps, 1e-4), DeltaRegime::kMedium);
  EXPECT_EQ(classify_delta(eps, 1.0 / 4096.0), DeltaRegime::kLarge);
  EXPECT_EQ(classify_delta(eps, 0.3), DeltaRegime::kLarge);
}

}  // namespace
}  // namespace flip
