// End-to-end checks of the paper's headline claims at test-sized n, plus
// failure-injection runs probing the protocol outside its guarantees.

#include <gtest/gtest.h>

#include "core/breathe.hpp"
#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"
#include "workload/scenarios.hpp"

namespace flip {
namespace {

TEST(IntegrationTest, BroadcastSucceedsWithHighProbability) {
  BroadcastScenario scenario;
  scenario.n = 1024;
  scenario.eps = 0.25;
  TrialOptions options;
  options.trials = 24;
  options.master_seed = 2024;
  const TrialSummary summary =
      run_trials(broadcast_trial_fn(scenario), options);
  EXPECT_GE(summary.successes, 23u)
      << "success " << summary.success.to_string();
}

TEST(IntegrationTest, RoundsAreWithinTheoryBand) {
  // Theorem 2.17: O(log n / eps^2) rounds. With calibrated constants the
  // multiple should stay in a fixed band.
  BroadcastScenario scenario;
  scenario.n = 2048;
  scenario.eps = 0.25;
  const RunDetail detail = run_broadcast(scenario, 5, 0);
  const double unit = theory::round_unit(scenario.n, scenario.eps);
  const double multiple = static_cast<double>(detail.metrics.rounds) / unit;
  EXPECT_GT(multiple, 1.0);
  EXPECT_LT(multiple, 40.0);
}

TEST(IntegrationTest, MessagesAreWithinTheoryBand) {
  BroadcastScenario scenario;
  scenario.n = 2048;
  scenario.eps = 0.25;
  const RunDetail detail = run_broadcast(scenario, 6, 0);
  const double unit = theory::message_unit(scenario.n, scenario.eps);
  const double multiple =
      static_cast<double>(detail.metrics.messages_sent) / unit;
  // Above the per-agent information-theoretic lower bound's scale and
  // below a fixed constant of the upper bound.
  EXPECT_GT(multiple, 0.5);
  EXPECT_LT(multiple, 40.0);
}

TEST(IntegrationTest, MajoritySucceedsAboveThresholdFailsFarBelow) {
  // Corollary 2.18 needs majority-bias Omega(sqrt(log n/|A|)). Far below
  // that the initial signal drowns: the protocol cannot guarantee the
  // majority opinion (it may still end unanimous — on either value).
  MajorityScenario good;
  good.n = 1024;
  good.eps = 0.3;
  good.initial_set = 256;
  good.majority_bias = 0.4;
  TrialOptions options;
  options.trials = 16;
  const TrialSummary good_summary =
      run_trials(majority_trial_fn(good), options);
  EXPECT_GE(good_summary.successes, 15u);

  MajorityScenario bad = good;
  bad.initial_set = 64;
  bad.majority_bias = 1.0 / 64.0;  // a one-agent majority: 33 vs 31
  TrialOptions bad_options;
  bad_options.trials = 24;
  const TrialSummary bad_summary =
      run_trials(majority_trial_fn(bad), bad_options);
  // No guarantee this far below the sqrt(log n/|A|) threshold: a visible
  // fraction of runs must converge to the minority opinion.
  EXPECT_LT(bad_summary.successes, 21u)
      << "success " << bad_summary.success.to_string();
}

TEST(IntegrationTest, StageOneOutputBiasIsPositiveAndSmall) {
  // Lemma 2.3: Stage I ends with all agents activated and bias
  // Omega(sqrt(log n / n)) — positive but far from consensus, which is
  // exactly why Stage II exists.
  BroadcastScenario scenario;
  scenario.n = 4096;
  scenario.eps = 0.25;
  int positive = 0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const RunDetail detail = run_broadcast(scenario, 77, t);
    ASSERT_FALSE(detail.stage1.empty());
    const auto& last = detail.stage1.back();
    EXPECT_EQ(last.total_activated, scenario.n) << "trial " << t;
    // Sum layer stats into the overall initial bias.
    double correct = 1.0;  // the source
    double total = 1.0;
    for (const auto& s : detail.stage1) {
      correct += static_cast<double>(s.newly_correct);
      total += static_cast<double>(s.newly_activated);
    }
    const double bias = 0.5 * (2.0 * correct - total) / total;
    if (bias > 0.0) ++positive;
  }
  EXPECT_GE(positive, kTrials - 1);
}

TEST(IntegrationTest, ChannelAtMaxNoiseStillWorks) {
  // eps barely above the usable range's floor for this n: slower schedule
  // but still correct.
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.45;  // very mild noise
  const RunDetail detail = run_broadcast(scenario, 13, 0);
  EXPECT_TRUE(detail.success);
}

TEST(IntegrationTest, FailureInjectionErasureChannel) {
  // Outside the model: 20% of messages destroyed on top of the flips.
  // The schedule's slack absorbs it — agents just collect fewer samples.
  const std::size_t n = 512;
  const double eps = 0.3;
  const Params params = Params::calibrated(n, eps);
  ErasureChannel channel(eps, 0.2);
  Engine engine(n, channel, trial_stream_key(101, 0));
  BreatheProtocol protocol(params, broadcast_config(),
                           trial_stream_key(102, 0));
  const Metrics metrics = engine.run(protocol, protocol.total_rounds());
  EXPECT_GT(metrics.erased, 0u);
  EXPECT_GE(protocol.population().correct_fraction(Opinion::kOne), 0.99);
}

TEST(IntegrationTest, FailureInjectionAdversarialPrefixFlips) {
  // Outside the model: an adversary flips the FIRST budget messages — the
  // worst case for phase 0, which seeds the initial bias. With a budget
  // beyond beta_s the entire seed layer is inverted and the run converges
  // to the WRONG opinion: stochastic noise is essential to the guarantee.
  const std::size_t n = 512;
  const double eps = 0.3;
  const Params params = Params::calibrated(n, eps);
  AdversarialChannel channel(2 * params.stage1().beta_s);
  Engine engine(n, channel, trial_stream_key(103, 0));
  BreatheProtocol protocol(params, broadcast_config(),
                           trial_stream_key(104, 0));
  engine.run(protocol, protocol.total_rounds());
  EXPECT_LT(protocol.population().correct_fraction(Opinion::kOne), 0.5);
}

TEST(IntegrationTest, SymmetryAcrossOpinionValues) {
  // A symmetric algorithm must behave identically for B = 0 and B = 1
  // under matched randomness: same message pattern, mirrored content.
  BroadcastScenario one;
  one.n = 512;
  one.eps = 0.3;
  one.correct = Opinion::kOne;
  BroadcastScenario zero = one;
  zero.correct = Opinion::kZero;
  const RunDetail d1 = run_broadcast(one, 31, 0);
  const RunDetail d0 = run_broadcast(zero, 31, 0);
  EXPECT_EQ(d1.metrics.messages_sent, d0.metrics.messages_sent);
  EXPECT_EQ(d1.metrics.rounds, d0.metrics.rounds);
  EXPECT_EQ(d1.success, d0.success);
}

}  // namespace
}  // namespace flip
