// The dynamic-environment layer (core/environment.hpp): spec parsing and
// validation, the pure-function schedule evaluation (including the
// counter-keyed burst lottery), churn transitions, the Population liveness
// bookkeeping, and the CorrelatedBurstChannel round protocol.

#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/channel.hpp"
#include "sim/population.hpp"

namespace flip {
namespace {

StreamKey test_key() { return trial_stream_key(0x5eed, 0); }

// --- EnvironmentSchedule: segments --------------------------------------

TEST(EnvironmentScheduleTest, DisabledScheduleIsBaseEpsEverywhere) {
  EnvironmentSchedule schedule;
  schedule.base_eps = 0.2;
  EXPECT_FALSE(schedule.enabled());
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 0), 0.2);
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 12345), 0.2);
  EXPECT_EQ(schedule.describe(), "static");
}

TEST(EnvironmentScheduleTest, StepHoldsFromItsRound) {
  EnvironmentSchedule schedule = EnvironmentSchedule::parse("step:100:0.1");
  schedule.base_eps = 0.3;
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 0), 0.3);
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 99), 0.3);
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 100), 0.1);
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 100000), 0.1);
}

TEST(EnvironmentScheduleTest, RampInterpolatesAndHoldsItsEnd) {
  EnvironmentSchedule schedule =
      EnvironmentSchedule::parse("ramp:100:200:0.4:0.2");
  schedule.base_eps = 0.3;
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 0), 0.3);    // before: base
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 100), 0.4);  // start
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 150), 0.3);  // midpoint
  // A finished ramp holds its final eps — it is a transition, not an
  // excursion that snaps back to base.
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 200), 0.2);
  EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), 5000), 0.2);
}

TEST(EnvironmentScheduleTest, ResolvedAnchorsOpenEndsAndBaseEps) {
  const EnvironmentSchedule open =
      EnvironmentSchedule::parse("ramp:0.4:0.2");
  ASSERT_EQ(open.segments.size(), 1u);
  EXPECT_EQ(open.segments[0].end, Round{0});  // "whole run"
  const EnvironmentSchedule anchored = open.resolved(0.25, 1000);
  ASSERT_EQ(anchored.segments.size(), 1u);
  EXPECT_EQ(anchored.segments[0].end, Round{1000});
  EXPECT_DOUBLE_EQ(anchored.base_eps, 0.25);
  EXPECT_DOUBLE_EQ(anchored.eps_at(test_key(), 500), 0.3);
  // A segment entirely past the run is dropped.
  const EnvironmentSchedule late =
      EnvironmentSchedule::parse("step:2000:0.1").resolved(0.25, 1000);
  EXPECT_TRUE(late.segments.empty());
}

// --- EnvironmentSchedule: bursts ----------------------------------------

TEST(EnvironmentScheduleTest, BurstLotteryIsKeyedAndWindowAligned) {
  EnvironmentSchedule schedule =
      EnvironmentSchedule::parse("burst:0.5:16:0.05");
  schedule.base_eps = 0.3;

  // Pure function of (key, round): two evaluations always agree.
  for (Round r = 0; r < 256; ++r) {
    EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), r),
                     schedule.eps_at(test_key(), r));
  }
  // Window-aligned: every round of one 16-round window agrees with the
  // window's first round.
  std::size_t bursts = 0;
  for (Round w = 0; w < 64; ++w) {
    const double window_eps = schedule.eps_at(test_key(), w * 16);
    for (Round r = w * 16; r < (w + 1) * 16; ++r) {
      EXPECT_DOUBLE_EQ(schedule.eps_at(test_key(), r), window_eps);
    }
    bursts += window_eps == 0.05;
  }
  // p = 0.5 over 64 windows: both outcomes must occur (prob ~2^-64 miss).
  EXPECT_GT(bursts, 0u);
  EXPECT_LT(bursts, 64u);

  // Distinct trial keys give distinct burst patterns (somewhere).
  const StreamKey other = trial_stream_key(0x5eed, 1);
  bool differs = false;
  for (Round w = 0; w < 64 && !differs; ++w) {
    differs = schedule.eps_at(test_key(), w * 16) !=
              schedule.eps_at(other, w * 16);
  }
  EXPECT_TRUE(differs);
}

// --- parsing / validation ------------------------------------------------

TEST(EnvironmentScheduleTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(EnvironmentSchedule::parse("nope:1:2"),
               std::invalid_argument);
  EXPECT_THROW(EnvironmentSchedule::parse("ramp:0.4"),
               std::invalid_argument);
  EXPECT_THROW(EnvironmentSchedule::parse("ramp:abc:0.2"),
               std::invalid_argument);
  EXPECT_THROW(EnvironmentSchedule::parse("step:10:0.6"),  // eps > 0.5
               std::invalid_argument);
  EXPECT_THROW(EnvironmentSchedule::parse("burst:1.5:16:0.05"),  // p > 1
               std::invalid_argument);
  EXPECT_THROW(EnvironmentSchedule::parse("burst:0.1:0:0.05"),  // len 0
               std::invalid_argument);
  EXPECT_THROW(EnvironmentSchedule::parse("ramp:200:100:0.4:0.2"),
               std::invalid_argument);  // end <= begin
}

TEST(EnvironmentScheduleTest, DescribeIsStableAndCommaFree) {
  EXPECT_EQ(EnvironmentSchedule::parse("step:100:0.1").describe(),
            "step@100:0.1");
  EXPECT_EQ(EnvironmentSchedule::parse("ramp:0.35:0.1").describe(),
            "ramp[0..end):0.35->0.1");
  const std::string burst =
      EnvironmentSchedule::parse("burst:0.08:16:0.02").describe();
  EXPECT_EQ(burst, "burst(p=0.08 len=16 eps=0.02)");
  // Every spelling must embed into an unquoted CSV cell: a comma would
  // shift every column after "schedule" in the sweep CSV.
  for (const char* spec :
       {"step:100:0.1", "ramp:0.35:0.1", "ramp:64:512:0.35:0.1",
        "burst:0.08:16:0.02"}) {
    EXPECT_EQ(EnvironmentSchedule::parse(spec).describe().find(','),
              std::string::npos)
        << spec;
  }
  EXPECT_EQ(ChurnSpec::parse("0.01:0.2:0.25").describe().find(','),
            std::string::npos);
}

TEST(ChurnSpecTest, ParseAndDescribe) {
  const ChurnSpec churn = ChurnSpec::parse("0.005:0.1");
  EXPECT_DOUBLE_EQ(churn.sleep_prob, 0.005);
  EXPECT_DOUBLE_EQ(churn.wake_prob, 0.1);
  EXPECT_DOUBLE_EQ(churn.start_asleep, 0.0);
  EXPECT_TRUE(churn.enabled());
  EXPECT_EQ(churn.describe(), "sleep=0.005 wake=0.1");

  const ChurnSpec join = ChurnSpec::parse("0.01:0.2:0.25");
  EXPECT_DOUBLE_EQ(join.start_asleep, 0.25);
  EXPECT_EQ(join.describe(), "sleep=0.01 wake=0.2 start_asleep=0.25");

  EXPECT_EQ(ChurnSpec{}.describe(), "none");
  EXPECT_FALSE(ChurnSpec{}.enabled());

  EXPECT_THROW(ChurnSpec::parse("0.1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("0.1:2.0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("0.1:0.2:0.3:0.4"), std::invalid_argument);
}

// --- churn draws ---------------------------------------------------------

TEST(ChurnTest, TransitionsAreKeyedPureFunctions) {
  ChurnSpec churn;
  churn.sleep_prob = 0.5;
  churn.wake_prob = 0.5;
  const StreamKey round_key =
      round_stream_key(test_key(), RngPurpose::kChurn, 7);
  for (AgentId a = 0; a < 64; ++a) {
    EXPECT_EQ(churn_step(churn, round_key, a, true),
              churn_step(churn, round_key, a, true));
    EXPECT_EQ(churn_step(churn, round_key, a, false),
              churn_step(churn, round_key, a, false));
  }
}

TEST(ChurnTest, DegenerateProbabilitiesPinTransitions) {
  const StreamKey round_key =
      round_stream_key(test_key(), RngPurpose::kChurn, 3);
  ChurnSpec never;
  EXPECT_TRUE(churn_step(never, round_key, 0, true));
  EXPECT_FALSE(churn_step(never, round_key, 0, false));
  ChurnSpec always;
  always.sleep_prob = 1.0;
  always.wake_prob = 1.0;
  EXPECT_FALSE(churn_step(always, round_key, 0, true));
  EXPECT_TRUE(churn_step(always, round_key, 0, false));
}

TEST(ChurnTest, StartAsleepLotteryIsKeyedAndRoughlyCalibrated) {
  ChurnSpec churn;
  churn.start_asleep = 0.25;
  std::size_t asleep = 0;
  for (AgentId a = 0; a < 4096; ++a) {
    const bool first = churn_starts_asleep(churn, test_key(), a);
    EXPECT_EQ(first, churn_starts_asleep(churn, test_key(), a));
    asleep += first;
  }
  EXPECT_NEAR(static_cast<double>(asleep) / 4096.0, 0.25, 0.05);
}

// --- Population liveness -------------------------------------------------

TEST(PopulationLivenessTest, SleepWakeBookkeeping) {
  Population pop(8);
  EXPECT_EQ(pop.asleep(), 0u);
  for (AgentId a = 0; a < 8; ++a) EXPECT_TRUE(pop.awake(a));

  pop.set_awake(3, false);
  pop.set_awake(5, false);
  EXPECT_EQ(pop.asleep(), 2u);
  EXPECT_FALSE(pop.awake(3));
  pop.set_awake(3, false);  // idempotent
  EXPECT_EQ(pop.asleep(), 2u);
  pop.set_awake(3, true);
  EXPECT_EQ(pop.asleep(), 1u);

  pop.reuse(8);
  EXPECT_EQ(pop.asleep(), 0u);
  EXPECT_TRUE(pop.awake(5));
}

TEST(PopulationLivenessTest, CountedUpdatesMatchDirect) {
  Population direct(16);
  Population counted(16);
  Population::Delta delta;
  direct.set_awake(2, false);
  direct.set_awake(9, false);
  direct.set_awake(2, true);
  counted.set_awake_counted(2, false, delta);
  counted.set_awake_counted(9, false, delta);
  counted.set_awake_counted(2, true, delta);
  counted.apply(delta);
  EXPECT_EQ(direct.asleep(), counted.asleep());
  EXPECT_EQ(counted.asleep(), 1u);
  EXPECT_EQ(direct.awake(2), counted.awake(2));
  EXPECT_EQ(direct.awake(9), counted.awake(9));
}

// --- CorrelatedBurstChannel ----------------------------------------------

TEST(CorrelatedBurstChannelTest, MatchesBscAtThePinnedRoundEps) {
  EnvironmentSchedule schedule =
      EnvironmentSchedule::parse("step:50:0.1").resolved(0.3, 1000);
  CorrelatedBurstChannel channel(schedule);
  BinarySymmetricChannel before(0.3);
  BinarySymmetricChannel after(0.1);

  const StreamKey key = test_key();
  for (const Round r : {Round{0}, Round{49}, Round{50}, Round{999}}) {
    channel.begin_round(key, r);
    BinarySymmetricChannel& reference = r < 50 ? before : after;
    const StreamKey ckey = round_stream_key(key, RngPurpose::kChannel, r);
    for (AgentId a = 0; a < 128; ++a) {
      CounterRng rng_a(ckey, a);
      CounterRng rng_b(ckey, a);
      EXPECT_EQ(channel.transmit(Opinion::kOne, rng_a),
                reference.transmit(Opinion::kOne, rng_b));
    }
  }
}

TEST(CorrelatedBurstChannelTest, RequiresResolvedBaseEps) {
  EXPECT_THROW(
      CorrelatedBurstChannel(EnvironmentSchedule::parse("step:10:0.1")),
      std::invalid_argument);  // base_eps still 0 (unresolved)
}

}  // namespace
}  // namespace flip
