#include "baselines/voter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

VoterConfig zealot_config(Round duration) {
  VoterConfig config;
  config.zealots = {Seed{0, Opinion::kOne}};
  config.duration = duration;
  return config;
}

TEST(NoisyVoterTest, RejectsBadConfigs) {
  EXPECT_THROW(NoisyVoterProtocol(8, VoterConfig{}), std::invalid_argument);
  VoterConfig no_duration;
  no_duration.zealots = {Seed{0, Opinion::kOne}};
  EXPECT_THROW(NoisyVoterProtocol(8, no_duration), std::invalid_argument);
}

TEST(NoisyVoterTest, ZealotNeverChangesOpinion) {
  NoisyVoterProtocol protocol(8, zealot_config(100));
  protocol.deliver(0, Opinion::kZero, 0);
  EXPECT_EQ(protocol.population().opinion(0), Opinion::kOne);
}

TEST(NoisyVoterTest, NonZealotAdoptsWhatItHears) {
  NoisyVoterProtocol protocol(8, zealot_config(100));
  protocol.deliver(3, Opinion::kZero, 0);
  EXPECT_EQ(protocol.population().opinion(3), Opinion::kZero);
  protocol.deliver(3, Opinion::kOne, 1);
  EXPECT_EQ(protocol.population().opinion(3), Opinion::kOne);
}

TEST(NoisyVoterTest, RunsForExactDuration) {
  BinarySymmetricChannel channel(0.2);
  const StreamKey key = trial_stream_key(61, 0);
  Engine engine(64, channel, key);
  NoisyVoterProtocol protocol(64, zealot_config(500));
  const Metrics metrics = engine.run(protocol, 100000);
  EXPECT_EQ(metrics.rounds, 500u);
}

TEST(NoisyVoterTest, NoisePreventsConsensusInReasonableTime) {
  // The physics baseline: under noise the population hovers near 50/50
  // rather than converging — run for the time our protocol would need and
  // confirm it is nowhere near unanimity.
  const std::size_t n = 2048;
  const double eps = 0.2;
  BinarySymmetricChannel channel(eps);
  const StreamKey key = trial_stream_key(62, 0);
  Engine engine(n, channel, key);
  // ~8x the breathe protocol's budget at this n/eps.
  NoisyVoterProtocol protocol(n, zealot_config(8 * 2000));
  engine.run(protocol, 100000);
  const double fraction =
      protocol.population().correct_fraction(Opinion::kOne);
  EXPECT_GT(fraction, 0.3);
  EXPECT_LT(fraction, 0.7);
}

TEST(NoisyVoterTest, NoiselessZealotEventuallyDominatesSmallN) {
  // Without noise the zealot's opinion is absorbing; at tiny n this
  // happens quickly.
  const std::size_t n = 16;
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(63, 0);
  Engine engine(n, channel, key);
  NoisyVoterProtocol protocol(n, zealot_config(20000));
  engine.run(protocol, 20000);
  EXPECT_GE(protocol.population().correct_fraction(Opinion::kOne), 0.9);
}

}  // namespace
}  // namespace flip
