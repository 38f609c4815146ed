// White-box tests of the Section 3 schedule arithmetic: container tiling,
// send-window placement, per-wake-class finalization timing, and the
// attribution rules. These pin down the invariants the correctness argument
// rests on, independent of end-to-end outcomes.

#include <gtest/gtest.h>

#include <numeric>

#include "core/desync.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

/// A tiny harness exposing protocol behaviour through its public surface:
/// we drive collect_sends/deliver/end_round by hand.
struct Probe {
  Probe(std::size_t n, double eps, Round skew,
        Attribution attribution = Attribution::kLocalWindow)
      : params(Params::calibrated(n, eps)), key(trial_stream_key(1, 0)) {
    config.base = broadcast_config();
    config.max_skew = skew;
    config.attribution = attribution;
    config.wake.assign(n, 0);
  }

  DesyncBreatheProtocol build() {
    return DesyncBreatheProtocol(params, config, key);
  }

  Params params;
  StreamKey key;
  DesyncConfig config;
};

TEST(DesyncInternalsTest, PhaseCountCoversBothStages) {
  Probe probe(64, 0.3, 4);
  auto protocol = probe.build();
  const StageOneSchedule& s1 = probe.params.stage1();
  const StageTwoSchedule& s2 = probe.params.stage2();
  EXPECT_EQ(protocol.num_phases(),
            (s1.T + 2) + (s2.k + 1));
}

TEST(DesyncInternalsTest, TotalRoundsFormula) {
  // total = synchronous schedule + (P+1)*D when wake <= D.
  for (const Round D : {Round{0}, Round{1}, Round{7}, Round{32}}) {
    Probe probe(64, 0.3, D);
    auto protocol = probe.build();
    EXPECT_EQ(protocol.total_rounds(),
              probe.params.total_rounds() +
                  (protocol.num_phases() + 1) * D)
        << "D=" << D;
  }
}

TEST(DesyncInternalsTest, SourceSendsExactlyItsWindows) {
  // With only the source opinionated and everyone else permanently dormant
  // (we never deliver), the source must send in exactly the Stage I send
  // windows of phases 0..T+1 (level -1 < every stage-1 phase) plus every
  // Stage II send window.
  const std::size_t n = 16;
  Probe probe(n, 0.3, 5);
  auto protocol = probe.build();

  std::uint64_t send_rounds = 0;
  std::vector<Message> sends;
  for (Round g = 0; g < protocol.total_rounds(); ++g) {
    sends.clear();
    protocol.collect_sends(g, sends);
    ASSERT_LE(sends.size(), 1u) << "round " << g;
    if (!sends.empty()) {
      EXPECT_EQ(sends[0].sender, 0u);
      ++send_rounds;
    }
    protocol.end_round(g);
  }
  // Send windows total exactly the synchronous schedule length.
  EXPECT_EQ(send_rounds, probe.params.total_rounds());
}

TEST(DesyncInternalsTest, WakeOffsetShiftsSendWindowExactly) {
  const std::size_t n = 16;
  Probe probe(n, 0.3, 10);
  probe.config.wake[0] = 7;  // the source
  auto protocol = probe.build();
  std::vector<Message> sends;
  // Silent before wake + window start.
  for (Round g = 0; g < 7; ++g) {
    sends.clear();
    protocol.collect_sends(g, sends);
    EXPECT_TRUE(sends.empty()) << "round " << g;
  }
  sends.clear();
  protocol.collect_sends(7, sends);
  EXPECT_EQ(sends.size(), 1u);
}

TEST(DesyncInternalsTest, ActivationFinalizesAtOwnContainerEnd) {
  // Deliver one message to agent 3 in its phase-0 container; its opinion
  // must appear exactly at global round wake + beta_s + D (container end),
  // not at the global phase boundary.
  const std::size_t n = 16;
  const Round D = 6;
  Probe probe(n, 0.3, D);
  probe.config.wake[3] = 4;
  auto protocol = probe.build();

  protocol.deliver(3, Opinion::kOne, /*g=*/5);  // local time 1: container 0
  const Round container0_end_local = probe.params.stage1().beta_s + D;
  // finalize happens inside end_round(g) with g + 1 == wake + container end,
  // so the opinion becomes visible to checks from the NEXT round on.
  const Round finalize_round = 4 + container0_end_local - 1;
  for (Round g = 0; g <= finalize_round + 1; ++g) {
    EXPECT_EQ(protocol.population().has_opinion(3), g > finalize_round)
        << "round " << g;
    protocol.end_round(g);
  }
  EXPECT_TRUE(protocol.population().has_opinion(3));
  EXPECT_EQ(protocol.population().opinion(3), Opinion::kOne);
}

TEST(DesyncInternalsTest, Stage1SpilloverIsIgnored) {
  // An agent activated in container 0 must ignore messages attributed to a
  // different container while still dormant (oracle mode can produce such
  // spillover). Its initial opinion comes only from container-0 messages.
  const std::size_t n = 16;
  const Round D = 6;
  Probe probe(n, 0.3, D, Attribution::kOracle);
  probe.config.wake[3] = 5;
  auto protocol = probe.build();

  // Message in global container 0 (source's phase 0).
  protocol.deliver(3, Opinion::kOne, /*g=*/10);
  // Message in global container 1: beta_s + D falls into container 1.
  const Round g1 = probe.params.stage1().beta_s + D + 1;
  protocol.deliver(3, Opinion::kZero, g1);
  // Walk to agent 3's container-0 end and check the kept opinion is the
  // container-0 bit (kOne), unaffected by the spillover kZero.
  const Round finalize = 5 + probe.params.stage1().beta_s + D;
  for (Round g = 0; g < finalize; ++g) protocol.end_round(g);
  ASSERT_TRUE(protocol.population().has_opinion(3));
  EXPECT_EQ(protocol.population().opinion(3), Opinion::kOne);
}

TEST(DesyncInternalsTest, OracleAndLocalAgreeWithZeroSkew) {
  // With D = 0 and all wakes 0, local time == global time, so the two
  // attribution rules are the same function; executions with the same seed
  // must match exactly.
  auto run = [](Attribution attribution) {
    const std::size_t n = 128;
    const Params params = Params::calibrated(n, 0.3);
    const StreamKey key = trial_stream_key(99, 0);
    BinarySymmetricChannel channel(0.3);
    Engine engine(n, channel, key);
    DesyncConfig config;
    config.base = broadcast_config();
    config.wake.assign(n, 0);
    config.max_skew = 0;
    config.attribution = attribution;
    DesyncBreatheProtocol protocol(params, config, key);
    const Metrics m = engine.run(protocol, protocol.total_rounds());
    return std::make_tuple(m.messages_sent, m.flipped,
                           protocol.population().count(Opinion::kOne));
  };
  EXPECT_EQ(run(Attribution::kLocalWindow), run(Attribution::kOracle));
}

TEST(DesyncInternalsTest, Stage1StatsAggregateAcrossWakeClasses) {
  const std::size_t n = 256;
  const Params params = Params::calibrated(n, 0.3);
  const StreamKey key = trial_stream_key(7, 0);
  CounterRng setup_rng(trial_stream_key(7, 2));
  BinarySymmetricChannel channel(0.3);
  Engine engine(n, channel, key);
  DesyncConfig config;
  config.base = broadcast_config();
  config.max_skew = 8;
  config.wake.resize(n);
  for (Round& w : config.wake) w = uniform_index(setup_rng, 9);
  config.wake[0] = 0;
  DesyncBreatheProtocol protocol(params, config, key);
  engine.run(protocol, protocol.total_rounds());

  std::uint64_t activated = 1;  // source
  for (const auto& s : protocol.stage1_stats()) {
    EXPECT_LE(s.newly_correct, s.newly_activated);
    activated += s.newly_activated;
  }
  EXPECT_EQ(activated, n);  // every agent activated exactly once
}

TEST(DesyncInternalsTest, ExcessSkewExtendsTotalRounds) {
  Probe small(64, 0.3, 4);
  const Round base_total = small.build().total_rounds();

  Probe excess(64, 0.3, 4);
  excess.config.allow_excess_skew = true;
  excess.config.wake[5] = 100;  // way past D
  const Round excess_total = excess.build().total_rounds();
  EXPECT_EQ(excess_total, base_total - 4 + 100);
}

}  // namespace
}  // namespace flip
