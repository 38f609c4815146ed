#include "baselines/silent.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

SilentConfig config_for(std::uint64_t samples, Round cap = 0) {
  SilentConfig config;
  config.samples_needed = samples;
  config.max_rounds = cap;
  return config;
}

TEST(SilentListeningTest, RejectsBadConfigs) {
  EXPECT_THROW(SilentListeningProtocol(8, config_for(0)),
               std::invalid_argument);
  EXPECT_THROW(SilentListeningProtocol(8, config_for(4)),
               std::invalid_argument);  // even sample count
}

TEST(SilentListeningTest, OnlySourceEverSends) {
  SilentListeningProtocol protocol(8, config_for(3));
  std::vector<Message> sends;
  protocol.collect_sends(0, sends);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].sender, 0u);
  protocol.deliver(3, Opinion::kOne, 0);
  protocol.end_round(0);
  sends.clear();
  protocol.collect_sends(1, sends);
  EXPECT_EQ(sends.size(), 1u);  // still only the source
}

TEST(SilentListeningTest, DecidesByMajorityOfSamples) {
  SilentListeningProtocol protocol(8, config_for(3));
  protocol.deliver(2, Opinion::kOne, 0);
  protocol.deliver(2, Opinion::kZero, 1);
  EXPECT_FALSE(protocol.population().has_opinion(2));
  protocol.deliver(2, Opinion::kOne, 2);
  ASSERT_TRUE(protocol.population().has_opinion(2));
  EXPECT_EQ(protocol.population().opinion(2), Opinion::kOne);
  EXPECT_EQ(protocol.decided(), 1u);
}

TEST(SilentListeningTest, ExtraSamplesAfterDecisionIgnored) {
  SilentListeningProtocol protocol(8, config_for(3));
  for (int i = 0; i < 3; ++i) protocol.deliver(2, Opinion::kZero, i);
  protocol.deliver(2, Opinion::kOne, 3);
  protocol.deliver(2, Opinion::kOne, 4);
  EXPECT_EQ(protocol.population().opinion(2), Opinion::kZero);
}

TEST(SilentListeningTest, CompletesOnSmallPopulation) {
  // End-to-end at tiny n: reliable (every sample has advantage eps) but
  // slow — the whole point of the baseline.
  const std::size_t n = 32;
  const double eps = 0.25;
  BinarySymmetricChannel channel(eps);
  const StreamKey key = trial_stream_key(51, 0);
  Engine engine(n, channel, key);
  SilentConfig config = config_for(101);
  SilentListeningProtocol protocol(n, config);
  const Metrics metrics = engine.run(protocol, 2000000);
  EXPECT_TRUE(protocol.all_decided());
  // Needs at least (n-1) * samples rounds: the source sends one per round.
  EXPECT_GE(metrics.rounds, (n - 1) * 101u);
  // And nearly everyone decides correctly (101 samples at advantage 0.25).
  EXPECT_GE(protocol.population().correct_fraction(Opinion::kOne),
            0.95);
}

TEST(SilentListeningTest, MaxRoundsCaps) {
  BinarySymmetricChannel channel(0.25);
  const StreamKey key = trial_stream_key(52, 0);
  Engine engine(64, channel, key);
  SilentListeningProtocol protocol(64, config_for(1001, 50));
  const Metrics metrics = engine.run(protocol, 1000000);
  EXPECT_EQ(metrics.rounds, 50u);
  EXPECT_FALSE(protocol.all_decided());
}

}  // namespace
}  // namespace flip
