#include "baselines/forward.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

ForwardConfig source_config(Round duration, bool stop_when_informed = false) {
  ForwardConfig config;
  config.initial = {Seed{0, Opinion::kOne}};
  config.duration = duration;
  config.stop_when_all_informed = stop_when_informed;
  return config;
}

TEST(ForwardGossipTest, RejectsBadConfigs) {
  EXPECT_THROW(ForwardGossipProtocol(8, ForwardConfig{}),
               std::invalid_argument);
  ForwardConfig no_stop;
  no_stop.initial = {Seed{0, Opinion::kOne}};
  EXPECT_THROW(ForwardGossipProtocol(8, no_stop), std::invalid_argument);
}

TEST(ForwardGossipTest, NoiselessSpreadIsLogarithmic) {
  // With a perfect channel this is classic push rumor spreading:
  // ~log2(n) + ln(n) rounds. Check the right ballpark.
  const std::size_t n = 4096;
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(41, 0);
  Engine engine(n, channel, key);
  ForwardGossipProtocol protocol(n, source_config(0, true));
  const Metrics metrics = engine.run(protocol, 10000);
  EXPECT_TRUE(protocol.all_informed());
  const double expected = std::log2(n) + std::log(n);
  EXPECT_GT(static_cast<double>(metrics.rounds), 0.5 * expected);
  EXPECT_LT(static_cast<double>(metrics.rounds), 3.0 * expected);
}

TEST(ForwardGossipTest, NoiselessSpreadIsAllCorrect) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(42, 0);
  Engine engine(512, channel, key);
  ForwardGossipProtocol protocol(512, source_config(0, true));
  engine.run(protocol, 10000);
  EXPECT_TRUE(protocol.population().unanimous(Opinion::kOne));
}

TEST(ForwardGossipTest, NoisySpreadHasNearZeroBias) {
  // Section 1.6: relayed bits decay as (2 eps)^depth; with depth ~ log n
  // the final population is near 50/50 despite everyone being "informed".
  const std::size_t n = 8192;
  const double eps = 0.2;
  BinarySymmetricChannel channel(eps);
  const StreamKey key = trial_stream_key(43, 0);
  Engine engine(n, channel, key);
  ForwardGossipProtocol protocol(n, source_config(0, true));
  engine.run(protocol, 20000);
  EXPECT_TRUE(protocol.all_informed());
  const double fraction =
      protocol.population().correct_fraction(Opinion::kOne);
  // Far from broadcast-correct: the strawman fails.
  EXPECT_LT(fraction, 0.75);
  // And consistent with the theoretical decay at typical depth >= 3.
  EXPECT_LT(fraction, theory::relay_correct_probability(eps, 2));
}

TEST(ForwardGossipTest, OpinionsFreezeOnceAdopted) {
  PerfectChannel channel;
  ForwardGossipProtocol protocol(4, source_config(100));
  protocol.deliver(2, Opinion::kZero, 0);
  protocol.deliver(2, Opinion::kOne, 0);  // ignored: already informed
  EXPECT_EQ(protocol.population().opinion(2), Opinion::kZero);
}

TEST(ForwardGossipTest, FreshAgentsSendOnlyNextRound) {
  ForwardGossipProtocol protocol(4, source_config(100));
  protocol.deliver(1, Opinion::kOne, 0);
  std::vector<Message> sends;
  protocol.collect_sends(0, sends);
  EXPECT_EQ(sends.size(), 1u);  // only the source
  protocol.end_round(0);
  sends.clear();
  protocol.collect_sends(1, sends);
  EXPECT_EQ(sends.size(), 2u);
}

TEST(ForwardGossipTest, DurationStopsExecution) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(45, 0);
  Engine engine(64, channel, key);
  ForwardGossipProtocol protocol(64, source_config(7));
  const Metrics metrics = engine.run(protocol, 1000);
  EXPECT_EQ(metrics.rounds, 7u);
}

TEST(ForwardGossipTest, InformedRoundIsRecorded) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(46, 0);
  Engine engine(128, channel, key);
  ForwardGossipProtocol protocol(128, source_config(0, true));
  const Metrics metrics = engine.run(protocol, 10000);
  EXPECT_EQ(protocol.informed_round(), metrics.rounds);
}

}  // namespace
}  // namespace flip
