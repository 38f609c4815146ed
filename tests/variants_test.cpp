// Tests for the Remark 2.1 / 2.10 rule variants, the heterogeneous-noise
// channel wiring, the Stage II mean-field recursion, and the excess-skew
// (E15) configuration.

#include <gtest/gtest.h>

#include "core/theory.hpp"
#include "workload/scenarios.hpp"

namespace flip {
namespace {

TEST(VariantsTest, FirstMessageRuleBroadcasts) {
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.stage1_pick = Stage1Pick::kFirstMessage;
  const RunDetail detail = run_broadcast(scenario, 21, 0);
  EXPECT_TRUE(detail.success);
}

TEST(VariantsTest, PrefixSubsetRuleBroadcasts) {
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.stage2_subset = Stage2Subset::kPrefixSubset;
  const RunDetail detail = run_broadcast(scenario, 22, 0);
  EXPECT_TRUE(detail.success);
}

TEST(VariantsTest, BothVariantsTogetherBroadcast) {
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.stage1_pick = Stage1Pick::kFirstMessage;
  scenario.stage2_subset = Stage2Subset::kPrefixSubset;
  const RunDetail detail = run_broadcast(scenario, 23, 0);
  EXPECT_TRUE(detail.success);
}

TEST(VariantsTest, VariantsMatchPaperRuleStatistically) {
  // Remark 2.1/2.10: in the fully-synchronous setting the variants are
  // distribution-equivalent. Compare success counts over a small batch.
  auto success_count = [](Stage1Pick pick, Stage2Subset subset) {
    BroadcastScenario scenario;
    scenario.n = 512;
    scenario.eps = 0.25;
    scenario.stage1_pick = pick;
    scenario.stage2_subset = subset;
    TrialOptions options;
    options.trials = 10;
    options.master_seed = 0x51AB;
    return run_trials(broadcast_trial_fn(scenario), options).successes;
  };
  const std::size_t paper =
      success_count(Stage1Pick::kUniformMessage, Stage2Subset::kUniformSubset);
  const std::size_t variant =
      success_count(Stage1Pick::kFirstMessage, Stage2Subset::kPrefixSubset);
  EXPECT_GE(paper, 9u);
  EXPECT_GE(variant, 9u);
}

TEST(VariantsTest, HeterogeneousNoisePreservesGuarantee) {
  // The model only promises flips "with probability at most 1/2 - eps";
  // a channel that is sometimes milder must not hurt.
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.heterogeneous_noise = true;
  const RunDetail detail = run_broadcast(scenario, 24, 0);
  EXPECT_TRUE(detail.success);
}

TEST(MeanFieldTest, SuccessFractionMatchesClaim29) {
  // Claim 2.9: at least n/2 successful agents per phase, w.h.p. The
  // mean-field per-agent success probability is comfortably above 1/2 for
  // every schedule we generate.
  for (const std::size_t n : {std::size_t{256}, std::size_t{16384}}) {
    const Params p = Params::calibrated(n, 0.25);
    EXPECT_GT(theory::stage2_success_fraction(n, p.stage2().m), 0.9);
  }
}

TEST(MeanFieldTest, NextBiasBoostsSmallDelta) {
  const std::size_t n = 16384;
  const Params p = Params::calibrated(n, 0.25);
  for (const double delta : {0.005, 0.02, 0.05}) {
    const double next = theory::stage2_next_bias(n, 0.25, delta,
                                                 p.stage2().gamma,
                                                 p.stage2().m);
    EXPECT_GT(next, 1.5 * delta) << "delta=" << delta;
    EXPECT_LE(next, 0.5 + 1e-12);
  }
}

TEST(MeanFieldTest, TrajectoryIsMonotoneAndSaturates) {
  const std::size_t n = 16384;
  const Params p = Params::calibrated(n, 0.25);
  const auto trajectory = theory::stage2_bias_trajectory(
      n, 0.25, 0.01, p.stage2().gamma, p.stage2().m, p.stage2().k);
  ASSERT_EQ(trajectory.size(), p.stage2().k + 1);
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    EXPECT_GE(trajectory[i] + 1e-12, trajectory[i - 1]);
  }
  EXPECT_GT(trajectory.back(), 0.4);  // saturates near 1/2
}

TEST(MeanFieldTest, PredictsSimulatedFirstBoostPhase) {
  // The mean-field map should land near the simulated bias after one boost
  // phase (it ignores only O(1/sqrt(n)) fluctuations).
  BoostScenario scenario;
  scenario.n = 16384;
  scenario.eps = 0.25;
  scenario.initial_bias = 0.02;
  const RunDetail detail = run_boost(scenario, 25, 0);
  ASSERT_FALSE(detail.stage2.empty());
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  const double predicted = theory::stage2_next_bias(
      scenario.n, scenario.eps, scenario.initial_bias, p.stage2().gamma,
      p.stage2().m);
  EXPECT_NEAR(detail.stage2.front().bias, predicted, 0.02);
}

TEST(ExcessSkewTest, WithinDeclaredSkewStillGuaranteed) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = 16;
  scenario.actual_skew = 16;
  const RunDetail detail = run_desync(scenario, 26, 0);
  EXPECT_TRUE(detail.success);
}

TEST(ExcessSkewTest, ModestExcessDegradesGracefully) {
  // 2x the declared slack: outside Theorem 3.1 but the protocol should
  // still produce a heavily-correct population rather than collapse.
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = 8;
  scenario.actual_skew = 16;
  const RunDetail detail = run_desync(scenario, 27, 0);
  EXPECT_GT(detail.correct_fraction, 0.6);
}

TEST(ExcessSkewTest, RejectedWithoutOptIn) {
  const Params p = Params::calibrated(64, 0.3);
  const StreamKey key = trial_stream_key(28, 0);
  DesyncConfig config;
  config.base = broadcast_config();
  config.max_skew = 4;
  config.wake.assign(64, 0);
  config.wake[1] = 9;
  EXPECT_THROW(DesyncBreatheProtocol(p, config, key), std::invalid_argument);
  config.allow_excess_skew = true;
  EXPECT_NO_THROW(DesyncBreatheProtocol(p, config, key));
}

}  // namespace
}  // namespace flip
