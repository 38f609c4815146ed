#include "baselines/aae.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace flip {
namespace {

AAEConfig make_config(std::size_t correct, std::size_t wrong,
                      double eps = 0.0, Round max_rounds = 2000) {
  AAEConfig config;
  config.initial_correct = correct;
  config.initial_wrong = wrong;
  config.eps = eps;
  config.max_rounds = max_rounds;
  return config;
}

TEST(AAETest, RejectsBadConfigs) {
  const StreamKey key = trial_stream_key(81, 0);
  EXPECT_THROW(ThreeStateAAE(1, make_config(1, 0), key),
               std::invalid_argument);
  EXPECT_THROW(ThreeStateAAE(10, make_config(8, 8), key),
               std::invalid_argument);
  AAEConfig no_rounds = make_config(4, 2);
  no_rounds.max_rounds = 0;
  EXPECT_THROW(ThreeStateAAE(10, no_rounds, key), std::invalid_argument);
}

TEST(AAETest, InitialCountsAreDealt) {
  const StreamKey key = trial_stream_key(82, 0);
  ThreeStateAAE aae(100, make_config(30, 10), key);
  EXPECT_EQ(aae.count(AAEState::kOne), 30u);
  EXPECT_EQ(aae.count(AAEState::kZero), 10u);
  EXPECT_EQ(aae.count(AAEState::kBlank), 60u);
}

TEST(AAETest, NoiselessConvergesToInitialMajority) {
  // The protocol's home turf: three symbols, no noise.
  const StreamKey key = trial_stream_key(83, 0);
  ThreeStateAAE aae(2048, make_config(300, 100), key);
  const AAEResult result = aae.run();
  EXPECT_TRUE(result.consensus);
  EXPECT_TRUE(result.correct);
  EXPECT_DOUBLE_EQ(result.final_correct_fraction, 1.0);
}

TEST(AAETest, NoiselessIsFast) {
  const StreamKey key = trial_stream_key(84, 0);
  ThreeStateAAE aae(4096, make_config(400, 100), key);
  const AAEResult result = aae.run();
  EXPECT_TRUE(result.consensus);
  EXPECT_LT(result.rounds, 200u);  // O(log n) expected
}

TEST(AAETest, NoiseBreaksConvergence) {
  // The paper's reason for not using AAE in the Flip model: under heavy
  // symbol noise the three-state dynamics cannot stabilize.
  const StreamKey key = trial_stream_key(85, 0);
  ThreeStateAAE aae(2048, make_config(300, 100, /*eps=*/0.1, /*rounds=*/500),
                    key);
  const AAEResult result = aae.run();
  EXPECT_FALSE(result.consensus);
}

TEST(AAETest, WrongMajorityWinsNoiselessly) {
  const StreamKey key = trial_stream_key(86, 0);
  AAEConfig config = make_config(100, 300);
  ThreeStateAAE aae(2048, config, key);
  const AAEResult result = aae.run();
  EXPECT_TRUE(result.consensus);
  EXPECT_FALSE(result.correct);
}

TEST(AAETest, DeterministicForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    const StreamKey key = trial_stream_key(seed, 0);
    ThreeStateAAE aae(512, make_config(80, 40), key);
    return aae.run().rounds;
  };
  EXPECT_EQ(run_once(87), run_once(87));
}

}  // namespace
}  // namespace flip
