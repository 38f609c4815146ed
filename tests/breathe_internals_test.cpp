// White-box tests of BreatheProtocol's phase mechanics: reservoir
// uniformity of the Stage I pick, Stage II success threshold edges,
// prefix-counter bookkeeping, and sender-set evolution.

#include <gtest/gtest.h>

#include <map>

#include "core/breathe.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

struct Probe {
  Probe(std::size_t n, double eps, BreatheConfig cfg, std::uint64_t seed = 1)
      : params(Params::calibrated(n, eps)),
        protocol(params, std::move(cfg), trial_stream_key(seed, 0)) {}

  Params params;
  BreatheProtocol protocol;
};

TEST(BreatheInternalsTest, Stage1ReservoirPickIsUniform) {
  // Agent 5 hears three distinct-bit messages in phase 0 across many fresh
  // protocols; the adopted opinion must match each position ~uniformly.
  // Feed pattern: kOne, kZero, kZero — P(kOne) should be ~1/3.
  int ones = 0;
  constexpr int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    Probe probe(64, 0.3, broadcast_config(), 1000 + t);
    probe.protocol.deliver(5, Opinion::kOne, 0);
    probe.protocol.deliver(5, Opinion::kZero, 1);
    probe.protocol.deliver(5, Opinion::kZero, 2);
    const Round end = probe.params.stage1().phase_end(0);
    for (Round r = 0; r < end; ++r) probe.protocol.end_round(r);
    if (probe.protocol.population().opinion(5) == Opinion::kOne) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kTrials, 1.0 / 3.0, 0.02);
}

TEST(BreatheInternalsTest, FirstMessageRuleAlwaysKeepsFirst) {
  for (int t = 0; t < 50; ++t) {
    BreatheConfig config = broadcast_config();
    config.stage1_pick = Stage1Pick::kFirstMessage;
    Probe probe(64, 0.3, std::move(config), 2000 + t);
    probe.protocol.deliver(5, Opinion::kOne, 0);
    probe.protocol.deliver(5, Opinion::kZero, 1);
    probe.protocol.deliver(5, Opinion::kZero, 2);
    const Round end = probe.params.stage1().phase_end(0);
    for (Round r = 0; r < end; ++r) probe.protocol.end_round(r);
    EXPECT_EQ(probe.protocol.population().opinion(5), Opinion::kOne);
  }
}

TEST(BreatheInternalsTest, SenderSetGrowsOnlyAtPhaseBoundaries) {
  Probe probe(64, 0.3, broadcast_config());
  // Activate two agents mid-phase 0.
  probe.protocol.deliver(3, Opinion::kOne, 0);
  probe.protocol.deliver(4, Opinion::kOne, 0);
  std::vector<Message> sends;
  for (Round r = 0; r + 1 < probe.params.stage1().phase_end(0); ++r) {
    probe.protocol.end_round(r);
    sends.clear();
    probe.protocol.collect_sends(r + 1, sends);
    EXPECT_EQ(sends.size(), 1u) << "round " << r + 1;  // still source only
  }
  probe.protocol.end_round(probe.params.stage1().phase_end(0) - 1);
  sends.clear();
  probe.protocol.collect_sends(probe.params.stage1().phase_end(0), sends);
  EXPECT_EQ(sends.size(), 3u);  // source + both activees
}

TEST(BreatheInternalsTest, Stage2UnsuccessfulAgentKeepsOpinion) {
  // Drive an agent through a Stage II phase with too few samples: its
  // opinion must be untouched.
  BreatheConfig config = broadcast_config();
  config.skip_stage1 = true;
  config.initial.clear();
  for (AgentId a = 0; a < 64; ++a) {
    config.initial.push_back(Seed{a, Opinion::kZero});
  }
  config.correct = Opinion::kZero;
  Probe probe(64, 0.3, std::move(config));
  const StageTwoSchedule& s2 = probe.params.stage2();

  // Agent 7 receives threshold-1 samples, all kOne: not successful.
  for (std::uint64_t i = 0; i + 1 < s2.half_length(0); ++i) {
    probe.protocol.deliver(7, Opinion::kOne, static_cast<Round>(i));
  }
  for (Round r = 0; r < s2.m; ++r) probe.protocol.end_round(r);
  EXPECT_EQ(probe.protocol.population().opinion(7), Opinion::kZero);
}

TEST(BreatheInternalsTest, Stage2ExactThresholdIsSuccessful) {
  BreatheConfig config = broadcast_config();
  config.skip_stage1 = true;
  config.initial.clear();
  for (AgentId a = 0; a < 64; ++a) {
    config.initial.push_back(Seed{a, Opinion::kZero});
  }
  config.correct = Opinion::kZero;
  Probe probe(64, 0.3, std::move(config));
  const StageTwoSchedule& s2 = probe.params.stage2();

  // Exactly threshold samples, all kOne: successful, must flip to kOne.
  for (std::uint64_t i = 0; i < s2.half_length(0); ++i) {
    probe.protocol.deliver(7, Opinion::kOne, static_cast<Round>(i));
  }
  for (Round r = 0; r < s2.m; ++r) probe.protocol.end_round(r);
  EXPECT_EQ(probe.protocol.population().opinion(7), Opinion::kOne);
}

TEST(BreatheInternalsTest, Stage2PrefixRuleUsesArrivalOrder) {
  // threshold one-bits arrive FIRST, then a flood of zero-bits. The prefix
  // rule must decide kOne (prefix is all ones) even though the overall
  // majority of received samples is kZero.
  BreatheConfig config = broadcast_config();
  config.skip_stage1 = true;
  config.stage2_subset = Stage2Subset::kPrefixSubset;
  config.initial.clear();
  for (AgentId a = 0; a < 64; ++a) {
    config.initial.push_back(Seed{a, Opinion::kZero});
  }
  config.correct = Opinion::kZero;
  Probe probe(64, 0.3, std::move(config));
  const StageTwoSchedule& s2 = probe.params.stage2();
  const std::uint64_t threshold = s2.half_length(0);

  Round r = 0;
  for (std::uint64_t i = 0; i < threshold; ++i) {
    probe.protocol.deliver(7, Opinion::kOne, r++);
  }
  for (std::uint64_t i = 0; i < 3 * threshold && r < s2.m; ++i) {
    probe.protocol.deliver(7, Opinion::kZero, r++);
  }
  for (Round rr = 0; rr < s2.m; ++rr) probe.protocol.end_round(rr);
  EXPECT_EQ(probe.protocol.population().opinion(7), Opinion::kOne);
}

TEST(BreatheInternalsTest, Stage2CountersResetBetweenPhases) {
  // Samples from phase 0 must not leak into phase 1's decision.
  BreatheConfig config = broadcast_config();
  config.skip_stage1 = true;
  config.initial.clear();
  for (AgentId a = 0; a < 64; ++a) {
    config.initial.push_back(Seed{a, Opinion::kZero});
  }
  config.correct = Opinion::kZero;
  Probe probe(64, 0.3, std::move(config));
  const StageTwoSchedule& s2 = probe.params.stage2();

  // Phase 0: flood agent 7 with ones (it flips to kOne).
  for (Round r = 0; r < s2.m; ++r) {
    probe.protocol.deliver(7, Opinion::kOne, r);
    probe.protocol.end_round(r);
  }
  EXPECT_EQ(probe.protocol.population().opinion(7), Opinion::kOne);
  // Phase 1: exactly threshold zeros; if phase-0 ones leaked, the majority
  // would stay kOne. It must flip back to kZero.
  for (Round r = s2.m; r < 2 * s2.m; ++r) {
    if (r - s2.m < s2.half_length(1)) {
      probe.protocol.deliver(7, Opinion::kZero, r);
    }
    probe.protocol.end_round(r);
  }
  EXPECT_EQ(probe.protocol.population().opinion(7), Opinion::kZero);
}

TEST(BreatheInternalsTest, MajorityJoinPhaseSkipsEarlierRounds) {
  const Params params = Params::calibrated(1 << 16, 0.3);
  const std::uint64_t join = params.join_phase_for_initial_set(4096);
  ASSERT_GT(join, 0u);
  BreatheProtocol protocol(params, majority_config(params, 4096, 3000),
                           trial_stream_key(3, 0));
  // Execution is shorter than a from-phase-0 run by the skipped prefix.
  EXPECT_EQ(protocol.stage1_rounds(),
            params.stage1().total_rounds() - params.stage1().phase_start(join));
}

TEST(BreatheInternalsTest, SkipStage1StartsInStageTwo) {
  BreatheConfig config = broadcast_config();
  config.skip_stage1 = true;
  Probe probe(64, 0.3, std::move(config));
  EXPECT_EQ(probe.protocol.stage1_rounds(), 0u);
  EXPECT_EQ(probe.protocol.total_rounds(),
            probe.params.stage2().total_rounds());
  // Stage II semantics from round 0: everyone opinionated sends.
  std::vector<Message> sends;
  probe.protocol.collect_sends(0, sends);
  EXPECT_EQ(sends.size(), 1u);  // only the source holds an opinion
}

}  // namespace
}  // namespace flip
