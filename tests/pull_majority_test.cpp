#include "baselines/pull_majority.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace flip {
namespace {

PullMajorityConfig make_config(PullRule rule, double initial,
                               Round max_rounds = 2000) {
  PullMajorityConfig config;
  config.rule = rule;
  config.initial_correct_fraction = initial;
  config.max_rounds = max_rounds;
  return config;
}

TEST(PullMajorityTest, RejectsBadConfigs) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(71, 0);
  PullMajorityConfig no_rounds = make_config(PullRule::kTwoPlusOwn, 0.6, 0);
  no_rounds.max_rounds = 0;
  EXPECT_THROW(PullMajorityDynamics(64, no_rounds, channel, key),
               std::invalid_argument);
  EXPECT_THROW(PullMajorityDynamics(
                   64, make_config(PullRule::kTwoPlusOwn, 1.5), channel, key),
               std::invalid_argument);
}

TEST(PullMajorityTest, InitialFractionIsDealtExactly) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(72, 0);
  PullMajorityDynamics dynamics(100, make_config(PullRule::kTwoPlusOwn, 0.63),
                                channel, key);
  EXPECT_DOUBLE_EQ(
      dynamics.population().correct_fraction(Opinion::kOne), 0.63);
}

TEST(PullMajorityTest, NoiselessTwoChoicesConvergesToMajority) {
  // Doerr et al.: with initial bias >> sqrt(log n / n) and no noise,
  // consensus on the majority in O(log n) rounds.
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(73, 0);
  const std::size_t n = 4096;
  PullMajorityDynamics dynamics(
      n, make_config(PullRule::kTwoPlusOwn, 0.6, 500), channel, key);
  const PullMajorityResult result = dynamics.run();
  EXPECT_TRUE(result.consensus);
  EXPECT_TRUE(result.correct);
  EXPECT_LT(result.rounds, 100u);  // ~log n expected
}

TEST(PullMajorityTest, NoiselessThreeMajorityConverges) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(74, 0);
  PullMajorityDynamics dynamics(
      4096, make_config(PullRule::kThreeSamples, 0.6, 500), channel, key);
  const PullMajorityResult result = dynamics.run();
  EXPECT_TRUE(result.consensus);
  EXPECT_TRUE(result.correct);
}

TEST(PullMajorityTest, NoiseStallsTwoChoices) {
  // The paper's point (Section 1.2): sampling-based majority dynamics are
  // not robust to channel noise. With eps = 0.1 each pulled sample is
  // almost a coin flip; from a modest initial bias the dynamics hover far
  // from consensus for a long time.
  BinarySymmetricChannel channel(0.1);
  const StreamKey key = trial_stream_key(75, 0);
  const std::size_t n = 4096;
  PullMajorityDynamics dynamics(
      n, make_config(PullRule::kTwoPlusOwn, 0.55, 300), channel, key);
  const PullMajorityResult result = dynamics.run();
  EXPECT_FALSE(result.consensus);
  EXPECT_LT(result.final_correct_fraction, 0.95);
}

TEST(PullMajorityTest, TrajectoryIsRecorded) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(76, 0);
  PullMajorityDynamics dynamics(
      256, make_config(PullRule::kTwoPlusOwn, 0.7, 200), channel, key);
  const PullMajorityResult result = dynamics.run();
  EXPECT_FALSE(result.trajectory.empty());
  EXPECT_EQ(result.trajectory.front().round, 0u);
}

TEST(PullMajorityTest, AllWrongStaysWrong) {
  // Consensus on the minority start: if everyone starts wrong, the
  // dynamics agree on the wrong value — consensus != correctness.
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(77, 0);
  PullMajorityDynamics dynamics(
      256, make_config(PullRule::kTwoPlusOwn, 0.0, 200), channel, key);
  const PullMajorityResult result = dynamics.run();
  EXPECT_TRUE(result.consensus);
  EXPECT_FALSE(result.correct);
  EXPECT_DOUBLE_EQ(result.final_correct_fraction, 0.0);
}

}  // namespace
}  // namespace flip
