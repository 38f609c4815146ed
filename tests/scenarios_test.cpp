#include "workload/scenarios.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/environment.hpp"
#include "core/topology.hpp"

namespace flip {
namespace {

TEST(ScenariosTest, BroadcastRunIsDeterministic) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  const RunDetail a = run_broadcast(scenario, 1234, 0);
  const RunDetail b = run_broadcast(scenario, 1234, 0);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.metrics.flipped, b.metrics.flipped);
  EXPECT_DOUBLE_EQ(a.correct_fraction, b.correct_fraction);
}

TEST(ScenariosTest, DifferentTrialsDiffer) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  const RunDetail a = run_broadcast(scenario, 1234, 0);
  const RunDetail b = run_broadcast(scenario, 1234, 1);
  EXPECT_NE(a.metrics.flipped, b.metrics.flipped);
}

TEST(ScenariosTest, BroadcastRoundsMatchSchedule) {
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  const RunDetail detail = run_broadcast(scenario, 7, 0);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds, p.total_rounds());
  EXPECT_EQ(detail.protocol_rounds, p.total_rounds());
}

TEST(ScenariosTest, ProbeSeriesWhenRequested) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.probe_every = 50;
  const RunDetail detail = run_broadcast(scenario, 8, 0);
  EXPECT_FALSE(detail.metrics.bias_series.empty());
  EXPECT_FALSE(detail.metrics.activated_series.empty());
}

TEST(ScenariosTest, MajorityValidatesBias) {
  MajorityScenario scenario;
  scenario.majority_bias = 0.0;
  EXPECT_THROW(run_majority(scenario, 1, 0), std::invalid_argument);
  scenario.majority_bias = 0.6;
  EXPECT_THROW(run_majority(scenario, 1, 0), std::invalid_argument);
}

TEST(ScenariosTest, MajorityScenarioSucceedsAboveThresholds) {
  MajorityScenario scenario;
  scenario.n = 1024;
  scenario.eps = 0.3;
  scenario.initial_set = 256;
  scenario.majority_bias = 0.4;
  const RunDetail detail = run_majority(scenario, 9, 0);
  EXPECT_TRUE(detail.success);
}

TEST(ScenariosTest, DesyncZeroSkewBehavesLikeBroadcast) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = 0;
  const RunDetail detail = run_desync(scenario, 10, 0);
  EXPECT_TRUE(detail.success);
  EXPECT_EQ(detail.desync_overhead, 0u);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds, p.total_rounds());
}

TEST(ScenariosTest, DesyncWithSkewAddsOverheadOnly) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = 10;
  const RunDetail detail = run_desync(scenario, 11, 0);
  EXPECT_TRUE(detail.success);
  EXPECT_GT(detail.desync_overhead, 0u);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds,
            p.total_rounds() + detail.desync_overhead);
}

TEST(ScenariosTest, DesyncClockSyncPipeline) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.use_clock_sync = true;
  const RunDetail detail = run_desync(scenario, 12, 0);
  EXPECT_TRUE(detail.success);
  EXPECT_GT(detail.clock_sync_rounds, 0u);
  EXPECT_GT(detail.clock_sync_messages, 0u);
  EXPECT_GT(detail.measured_skew, 0u);
}

/// Every TrialOutcome field, exactly; NaN == NaN for convergence_round.
void expect_outcome_eq(const TrialOutcome& via_fn, const TrialOutcome& direct,
                       const std::string& what) {
  EXPECT_EQ(via_fn.success, direct.success) << what;
  EXPECT_EQ(via_fn.rounds, direct.rounds) << what;
  EXPECT_EQ(via_fn.messages, direct.messages) << what;
  EXPECT_EQ(via_fn.correct_fraction, direct.correct_fraction) << what;
  if (!(std::isnan(via_fn.convergence_round) &&
        std::isnan(direct.convergence_round))) {
    EXPECT_EQ(via_fn.convergence_round, direct.convergence_round) << what;
  }
  EXPECT_EQ(via_fn.delivered, direct.delivered) << what;
  EXPECT_EQ(via_fn.dropped, direct.dropped) << what;
  EXPECT_EQ(via_fn.erased, direct.erased) << what;
  EXPECT_EQ(via_fn.flipped, direct.flipped) << what;
}

/// Runs `scenario` through its *_trial_fn and through to_outcome(run_*) on
/// both exact substrates and expects the same outcome from each.
template <typename Scenario, typename TrialFnOf, typename RunOf>
void expect_adapter_matches(const std::string& name, Scenario scenario,
                            TrialFnOf trial_fn_of, RunOf run_of) {
  for (const EngineMode engine : {EngineMode::kBatch, EngineMode::kClassic}) {
    scenario.engine = engine;
    expect_outcome_eq(trial_fn_of(scenario)(99, 3),
                      to_outcome(run_of(scenario, 99, 3)),
                      name + " on " + std::string(engine_mode_name(engine)));
  }
}

TEST(ScenariosTest, TrialFnAdapterMatchesDirectRun) {
  // The trial fns and the RunDetail runners share one result path: every
  // breathe path must report the same outcome through either.
  BroadcastScenario bsc;
  bsc.n = 256;
  bsc.eps = 0.3;
  bsc.probe_every = 8;  // a finite convergence_round to compare
  BroadcastScenario heterogeneous = bsc;
  heterogeneous.heterogeneous_noise = true;
  BroadcastScenario schedule = bsc;
  schedule.schedule = EnvironmentSchedule::parse("ramp:0.4:0.15");
  BroadcastScenario churn = bsc;
  churn.churn = ChurnSpec::parse("0.01:0.1:0.25");
  BroadcastScenario adversarial = bsc;
  adversarial.adversarial_budget = 128;
  BroadcastScenario stage1_only = bsc;
  stage1_only.stage1_only = true;
  BroadcastScenario smallworld = bsc;
  smallworld.topology = TopologySpec::parse("smallworld:8:0.1");
  for (const auto& [name, scenario] :
       {std::pair{"bsc", bsc}, std::pair{"heterogeneous", heterogeneous},
        std::pair{"eps schedule", schedule}, std::pair{"churn", churn},
        std::pair{"adversarial", adversarial},
        std::pair{"stage1_only", stage1_only},
        std::pair{"smallworld topology", smallworld}}) {
    expect_adapter_matches(name, scenario, broadcast_trial_fn, run_broadcast);
  }

  MajorityScenario majority;
  majority.n = 256;
  majority.eps = 0.3;
  majority.initial_set = 32;
  majority.probe_every = 8;
  expect_adapter_matches("majority", majority, majority_trial_fn,
                         run_majority);

  BoostScenario boost;
  boost.n = 256;
  boost.eps = 0.3;
  boost.initial_bias = 0.05;
  expect_adapter_matches("boost", boost, boost_trial_fn, run_boost);
}

/// The std::invalid_argument text `make` throws; empty when it throws none.
template <typename Make>
std::string rejection(Make make) {
  try {
    (void)make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenariosTest, ExactEnginesRejectChannelsThatDoNotCompose) {
  BroadcastScenario heterogeneous;
  heterogeneous.n = 256;
  heterogeneous.heterogeneous_noise = true;
  heterogeneous.schedule = EnvironmentSchedule::parse("ramp:0.4:0.15");
  BroadcastScenario adversarial = heterogeneous;
  adversarial.heterogeneous_noise = false;
  adversarial.adversarial_budget = 128;
  for (BroadcastScenario scenario : {heterogeneous, adversarial}) {
    for (const EngineMode engine : {EngineMode::kBatch, EngineMode::kClassic}) {
      scenario.engine = engine;
      EXPECT_THROW(run_broadcast(scenario, 1, 0), std::invalid_argument);
      EXPECT_THROW(broadcast_trial_fn(scenario), std::invalid_argument);
    }
  }
}

TEST(ScenariosTest, SurrogateRejectionsNameTheScenario) {
  BroadcastScenario adversarial;
  adversarial.engine = EngineMode::kSurrogate;
  adversarial.adversarial_budget = 128;
  const std::string adversary =
      rejection([&] { return broadcast_trial_fn(adversarial); });
  EXPECT_TRUE(adversary.starts_with("broadcast: ")) << adversary;
  EXPECT_NE(adversary.find("adversarial"), std::string::npos) << adversary;

  const TopologySpec ring = TopologySpec::parse("ring:8");
  BroadcastScenario broadcast;
  broadcast.engine = EngineMode::kSurrogate;
  broadcast.topology = ring;
  MajorityScenario majority;
  majority.engine = EngineMode::kSurrogate;
  majority.topology = ring;
  BoostScenario boost;
  boost.engine = EngineMode::kSurrogate;
  boost.topology = ring;
  for (const auto& [name, message] :
       {std::pair{"broadcast",
                  rejection([&] { return broadcast_trial_fn(broadcast); })},
        std::pair{"majority",
                  rejection([&] { return majority_trial_fn(majority); })},
        std::pair{"boost", rejection([&] { return boost_trial_fn(boost); })}}) {
    EXPECT_TRUE(message.starts_with(std::string(name) + ": ")) << message;
    EXPECT_NE(message.find("ring"), std::string::npos) << message;
  }
}

TEST(ScenariosTest, BiasOutsideItsDomainThrowsOnEveryEngine) {
  for (const double bias : {0.0, 0.6}) {
    BoostScenario boost;
    boost.initial_bias = bias;
    EXPECT_THROW(run_boost(boost, 1, 0), std::invalid_argument);
    for (const EngineMode engine :
         {EngineMode::kBatch, EngineMode::kSurrogate}) {
      boost.engine = engine;
      const std::string message =
          rejection([&] { return boost_trial_fn(boost); });
      EXPECT_NE(message.find("initial_bias"), std::string::npos) << message;
    }
  }
  MajorityScenario majority;
  majority.majority_bias = 0.0;
  majority.engine = EngineMode::kSurrogate;
  const std::string message =
      rejection([&] { return majority_trial_fn(majority); });
  EXPECT_NE(message.find("majority_bias"), std::string::npos) << message;
}

TEST(ScenariosTest, TrialHarnessIntegration) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  TrialOptions options;
  options.trials = 8;
  const TrialSummary summary =
      run_trials(broadcast_trial_fn(scenario), options);
  EXPECT_EQ(summary.trials, 8u);
  EXPECT_GE(summary.successes, 6u);  // near-certain at these parameters
  EXPECT_GT(summary.messages.mean(), 0.0);
}

}  // namespace
}  // namespace flip
