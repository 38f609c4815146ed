#include "net/channel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace flip {
namespace {

TEST(OpinionTest, FlipIsInvolution) {
  EXPECT_EQ(flip_opinion(Opinion::kZero), Opinion::kOne);
  EXPECT_EQ(flip_opinion(Opinion::kOne), Opinion::kZero);
  EXPECT_EQ(flip_opinion(flip_opinion(Opinion::kOne)), Opinion::kOne);
}

TEST(BscTest, RejectsBadEps) {
  EXPECT_THROW(BinarySymmetricChannel(0.0), std::invalid_argument);
  EXPECT_THROW(BinarySymmetricChannel(-0.1), std::invalid_argument);
  EXPECT_THROW(BinarySymmetricChannel(0.6), std::invalid_argument);
  EXPECT_NO_THROW(BinarySymmetricChannel(0.5));
  EXPECT_NO_THROW(BinarySymmetricChannel(1e-6));
}

TEST(BscTest, FlipRateConcentratesAroundHalfMinusEps) {
  const double eps = 0.2;
  BinarySymmetricChannel channel(eps);
  CounterRng rng(trial_stream_key(11, 0));
  constexpr int kTrials = 200000;
  int flips = 0;
  for (int i = 0; i < kTrials; ++i) {
    const auto seen = channel.transmit(Opinion::kOne, rng);
    ASSERT_TRUE(seen.has_value());
    if (*seen != Opinion::kOne) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / kTrials, 0.5 - eps, 0.005);
}

TEST(BscTest, EpsHalfNeverFlips) {
  BinarySymmetricChannel channel(0.5);
  CounterRng rng(trial_stream_key(12, 0));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(channel.transmit(Opinion::kZero, rng), Opinion::kZero);
  }
}

TEST(BscTest, SymmetricAcrossOpinions) {
  const double eps = 0.1;
  BinarySymmetricChannel channel(eps);
  CounterRng rng(trial_stream_key(13, 0));
  constexpr int kTrials = 100000;
  int flips0 = 0;
  int flips1 = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (channel.transmit(Opinion::kZero, rng) != Opinion::kZero) ++flips0;
    if (channel.transmit(Opinion::kOne, rng) != Opinion::kOne) ++flips1;
  }
  EXPECT_NEAR(static_cast<double>(flips0) / kTrials,
              static_cast<double>(flips1) / kTrials, 0.01);
}

TEST(PerfectChannelTest, NeverAltersBits) {
  PerfectChannel channel;
  CounterRng rng(trial_stream_key(14, 0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(channel.transmit(Opinion::kOne, rng), Opinion::kOne);
    EXPECT_EQ(channel.transmit(Opinion::kZero, rng), Opinion::kZero);
  }
}

TEST(ErasureChannelTest, RejectsBadParameters) {
  EXPECT_THROW(ErasureChannel(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(ErasureChannel(0.2, 1.0), std::invalid_argument);
  EXPECT_THROW(ErasureChannel(0.2, -0.1), std::invalid_argument);
}

TEST(ErasureChannelTest, ErasesAtConfiguredRate) {
  ErasureChannel channel(0.5, 0.3);  // eps=0.5: no flips, only erasures
  CounterRng rng(trial_stream_key(15, 0));
  constexpr int kTrials = 100000;
  int erased = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (!channel.transmit(Opinion::kOne, rng)) ++erased;
  }
  EXPECT_NEAR(static_cast<double>(erased) / kTrials, 0.3, 0.01);
}

TEST(ErasureChannelTest, SurvivingBitsFlipAtBscRate) {
  ErasureChannel channel(0.2, 0.5);
  CounterRng rng(trial_stream_key(16, 0));
  int survived = 0;
  int flipped = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto seen = channel.transmit(Opinion::kOne, rng);
    if (!seen) continue;
    ++survived;
    if (*seen != Opinion::kOne) ++flipped;
  }
  EXPECT_GT(survived, 0);
  EXPECT_NEAR(static_cast<double>(flipped) / survived, 0.3, 0.01);
}

TEST(AdversarialChannelTest, FlipsExactlyBudgetThenHonest) {
  AdversarialChannel channel(3);
  CounterRng rng(trial_stream_key(17, 0));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(channel.transmit(Opinion::kOne, rng), Opinion::kZero);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(channel.transmit(Opinion::kOne, rng), Opinion::kOne);
  }
}

TEST(HeterogeneousChannelTest, RejectsBadEps) {
  EXPECT_THROW(HeterogeneousChannel(0.0), std::invalid_argument);
  EXPECT_THROW(HeterogeneousChannel(0.6), std::invalid_argument);
}

TEST(HeterogeneousChannelTest, MeanFlipRateIsHalfTheCeiling) {
  // Per-message flip probability ~ U[0, 1/2 - eps]: mean (1/2 - eps)/2.
  const double eps = 0.2;
  HeterogeneousChannel channel(eps);
  CounterRng rng(trial_stream_key(19, 0));
  constexpr int kTrials = 200000;
  int flips = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (channel.transmit(Opinion::kOne, rng) != Opinion::kOne) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / kTrials, (0.5 - eps) / 2.0, 0.005);
}

TEST(HeterogeneousChannelTest, NeverWorseThanTheModelBound) {
  // Empirical flip rate must stay below the model ceiling 1/2 - eps.
  HeterogeneousChannel channel(0.1);
  CounterRng rng(trial_stream_key(20, 0));
  int flips = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (channel.transmit(Opinion::kZero, rng) != Opinion::kZero) ++flips;
  }
  EXPECT_LT(static_cast<double>(flips) / kTrials, 0.5 - 0.1);
}

// --- Counter-keyed streams across agents ---------------------------------

TEST(CounterTransmitTest, BscFlipRateFromKeyedStreams) {
  // Flip decisions across agents (each from its own stream) must hit the
  // 1/2 - eps crossover rate, like the single-stream tests above.
  BinarySymmetricChannel channel(0.25);
  const StreamKey rk =
      round_stream_key(trial_stream_key(0xbeef, 1), RngPurpose::kChannel, 0);
  constexpr int kAgents = 100000;
  int flips = 0;
  for (int agent = 0; agent < kAgents; ++agent) {
    CounterRng rng(rk, static_cast<std::uint64_t>(agent));
    flips += channel.transmit(Opinion::kOne, rng) == Opinion::kZero;
  }
  EXPECT_NEAR(static_cast<double>(flips) / kAgents, 0.25, 0.01);
}

}  // namespace
}  // namespace flip
