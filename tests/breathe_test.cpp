#include "core/breathe.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

struct Harness {
  explicit Harness(std::size_t n, double eps, std::uint64_t seed,
                   BreatheConfig config)
      : params(Params::calibrated(n, eps)),
        key(trial_stream_key(seed, 0)),
        channel(eps),
        engine(n, channel, key),
        protocol(params, std::move(config), key) {}

  Metrics run() { return engine.run(protocol, protocol.total_rounds()); }

  Params params;
  StreamKey key;
  BinarySymmetricChannel channel;
  Engine engine;
  BreatheProtocol protocol;
};

TEST(BreatheProtocolTest, RejectsBadConfigs) {
  const Params p = Params::calibrated(64, 0.3);
  const StreamKey key = trial_stream_key(1, 0);
  BreatheConfig empty;
  EXPECT_THROW(BreatheProtocol(p, empty, key), std::invalid_argument);

  BreatheConfig out_of_range = broadcast_config();
  out_of_range.initial[0].agent = 100;
  EXPECT_THROW(BreatheProtocol(p, out_of_range, key), std::invalid_argument);

  BreatheConfig dup = broadcast_config();
  dup.initial.push_back(dup.initial[0]);
  EXPECT_THROW(BreatheProtocol(p, dup, key), std::invalid_argument);

  BreatheConfig late = broadcast_config();
  late.start_phase = p.stage1().T + 2;
  EXPECT_THROW(BreatheProtocol(p, late, key), std::invalid_argument);
}

TEST(BreatheProtocolTest, TotalRoundsMatchesSchedule) {
  Harness h(256, 0.3, 3, broadcast_config());
  EXPECT_EQ(h.protocol.total_rounds(), h.params.total_rounds());
  EXPECT_EQ(h.protocol.stage1_rounds(), h.params.stage1().total_rounds());
}

TEST(BreatheProtocolTest, PhaseZeroOnlySourceSpeaks) {
  Harness h(256, 0.3, 4, broadcast_config());
  std::vector<Message> sends;
  h.protocol.collect_sends(0, sends);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].sender, 0u);
  EXPECT_EQ(sends[0].bit, Opinion::kOne);
}

TEST(BreatheProtocolTest, ActivatedAgentsBreatheBeforeSpeaking) {
  // An agent receiving a message mid-phase must not send before the phase
  // ends (the paper's "breathe" rule).
  Harness h(256, 0.3, 5, broadcast_config());
  h.protocol.deliver(7, Opinion::kOne, 0);
  std::vector<Message> sends;
  h.protocol.collect_sends(1, sends);
  for (const Message& m : sends) EXPECT_NE(m.sender, 7u);
  EXPECT_FALSE(h.protocol.population().has_opinion(7));

  // Walk to the end of phase 0: the agent adopts an opinion and speaks.
  const Round end = h.params.stage1().phase_end(0);
  for (Round r = 0; r < end; ++r) h.protocol.end_round(r);
  EXPECT_TRUE(h.protocol.population().has_opinion(7));
  sends.clear();
  h.protocol.collect_sends(end, sends);
  bool found = false;
  for (const Message& m : sends) found |= m.sender == 7;
  EXPECT_TRUE(found);
}

TEST(BreatheProtocolTest, EndToEndBroadcastSucceeds) {
  Harness h(512, 0.3, 6, broadcast_config());
  const Metrics metrics = h.run();
  EXPECT_EQ(metrics.rounds, h.protocol.total_rounds());
  EXPECT_TRUE(h.protocol.succeeded())
      << "correct fraction "
      << h.protocol.population().correct_fraction(Opinion::kOne);
}

TEST(BreatheProtocolTest, WorksForBothOpinionValues) {
  // Symmetry: the protocol must work identically for B = 0.
  Harness h(512, 0.3, 7, broadcast_config(Opinion::kZero));
  h.run();
  EXPECT_TRUE(h.protocol.succeeded());
  EXPECT_TRUE(h.protocol.population().unanimous(Opinion::kZero));
}

TEST(BreatheProtocolTest, DeterministicForSameSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    Harness h(256, 0.25, seed, broadcast_config());
    const Metrics metrics = h.run();
    return std::make_tuple(metrics.flipped, metrics.delivered,
                           h.protocol.population().count(Opinion::kOne));
  };
  EXPECT_EQ(fingerprint(42), fingerprint(42));
}

TEST(BreatheProtocolTest, Stage1StatsAccounting) {
  Harness h(512, 0.3, 8, broadcast_config());
  h.run();
  const auto& stats = h.protocol.stage1_stats();
  ASSERT_FALSE(stats.empty());
  std::uint64_t cumulative = 1;  // the source
  for (const auto& s : stats) {
    EXPECT_LE(s.newly_correct, s.newly_activated);
    cumulative += s.newly_activated;
    EXPECT_EQ(s.total_activated, cumulative);
  }
  // By the end of Stage I everyone is activated (Corollary 2.6).
  EXPECT_EQ(stats.back().total_activated, 512u);
}

TEST(BreatheProtocolTest, Stage1LayerBiasIsPositive) {
  // Claim 2.2 / Claim 2.8: each layer keeps a positive bias toward B.
  Harness h(2048, 0.35, 9, broadcast_config());
  h.run();
  for (const auto& s : h.protocol.stage1_stats()) {
    if (s.newly_activated < 50) continue;  // too small for concentration
    EXPECT_GT(s.layer_bias(), 0.0) << "phase " << s.phase;
  }
}

TEST(BreatheProtocolTest, Stage2StatsMonotoneBoost) {
  Harness h(1024, 0.3, 10, broadcast_config());
  h.run();
  const auto& stats = h.protocol.stage2_stats();
  ASSERT_EQ(stats.size(), h.params.stage2().k + 1);
  // The final phase must reach unanimity from the boosted bias.
  EXPECT_DOUBLE_EQ(stats.back().correct_fraction, 1.0);
  // Most agents are successful in every phase (Claim 2.9: >= n/2 w.h.p.).
  for (const auto& s : stats) {
    EXPECT_GE(s.successful, 1024u / 2) << "phase " << s.phase;
  }
}

TEST(BreatheProtocolTest, MessageCountMatchesSenderSchedule) {
  // During phase 0 exactly one agent sends per round, so after phase 0 the
  // engine must have counted exactly beta_s messages.
  Harness h(256, 0.3, 11, broadcast_config());
  const Round beta_s = h.params.stage1().beta_s;
  const Metrics metrics = h.engine.run(h.protocol, beta_s);
  EXPECT_EQ(metrics.messages_sent, beta_s);
}

TEST(MajorityConfigTest, BuildsPrescribedSplit) {
  const Params p = Params::calibrated(1024, 0.25);
  const BreatheConfig config = majority_config(p, 100, 75);
  EXPECT_EQ(config.initial.size(), 100u);
  std::size_t correct = 0;
  for (const Seed& s : config.initial) {
    if (s.opinion == Opinion::kOne) ++correct;
  }
  EXPECT_EQ(correct, 75u);
  EXPECT_EQ(config.start_phase, p.join_phase_for_initial_set(100));
}

TEST(MajorityConfigTest, RejectsBadCounts) {
  const Params p = Params::calibrated(64, 0.25);
  EXPECT_THROW(majority_config(p, 100, 10), std::invalid_argument);
  EXPECT_THROW(majority_config(p, 10, 20), std::invalid_argument);
}

TEST(BreatheProtocolTest, MajorityConsensusEndToEnd) {
  const std::size_t n = 1024;
  const double eps = 0.3;
  const Params p = Params::calibrated(n, eps);
  // |A| comfortably above log n / eps^2, bias above sqrt(log n / |A|).
  const std::size_t a = 256;
  const std::size_t correct_count = 224;  // bias (224-32)/(2*256) = 0.375
  Harness h(n, eps, 12, majority_config(p, a, correct_count));
  h.run();
  EXPECT_TRUE(h.protocol.succeeded());
}

TEST(BreatheProtocolTest, MajorityConsensusWrongMajorityWins) {
  // If the initial majority is for the "wrong" opinion, the protocol must
  // converge there: correctness is defined relative to the majority.
  const std::size_t n = 1024;
  const Params p = Params::calibrated(n, 0.3);
  // Majority for kZero: only 32 of 256 hold kOne.
  BreatheConfig config = majority_config(p, 256, 32, Opinion::kOne);
  config.correct = Opinion::kZero;  // instrumentation tracks the majority
  Harness h(n, 0.3, 13, std::move(config));
  h.run();
  EXPECT_TRUE(h.protocol.population().unanimous(Opinion::kZero));
}

}  // namespace
}  // namespace flip
