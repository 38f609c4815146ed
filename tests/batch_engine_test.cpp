// Exactness contract of the batched fast path (sim/batch_engine.hpp):
// for the same (seed, trial), the BatchEngine substrates must produce
// BIT-IDENTICAL results to the classic Engine — same Metrics counters,
// same phase statistics, same probe series, same outcome doubles — and the
// sharded substrate must produce bit-identical results for EVERY shard
// count. No tolerance anywhere: every draw comes from the same
// counter-keyed per-agent stream, so any difference is a bug.

#include "sim/batch_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "core/environment.hpp"
#include "core/params.hpp"
#include "sim/population.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"
#include "workload/scenarios.hpp"

namespace flip {
namespace {

void expect_series_eq(const std::vector<Sample>& classic,
                      const std::vector<Sample>& fast, const char* what) {
  ASSERT_EQ(classic.size(), fast.size()) << what;
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(classic[i].round, fast[i].round) << what << " @" << i;
    EXPECT_EQ(classic[i].value, fast[i].value) << what << " @" << i;
  }
}

void expect_metrics_eq(const Metrics& classic, const Metrics& fast) {
  EXPECT_EQ(classic.rounds, fast.rounds);
  EXPECT_EQ(classic.messages_sent, fast.messages_sent);
  EXPECT_EQ(classic.delivered, fast.delivered);
  EXPECT_EQ(classic.dropped, fast.dropped);
  EXPECT_EQ(classic.erased, fast.erased);
  EXPECT_EQ(classic.flipped, fast.flipped);
  expect_series_eq(classic.bias_series, fast.bias_series, "bias_series");
  expect_series_eq(classic.activated_series, fast.activated_series,
                   "activated_series");
}

/// Exact equality that treats NaN == NaN (convergence rounds are NaN when
/// a run records no probes or never converges).
void expect_double_eq_nan(double a, double b, const char* what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << what;
}

void expect_detail_eq(const RunDetail& classic, const RunDetail& fast) {
  expect_metrics_eq(classic.metrics, fast.metrics);
  expect_double_eq_nan(classic.convergence_round, fast.convergence_round,
                       "convergence_round");
  EXPECT_EQ(classic.success, fast.success);
  EXPECT_EQ(classic.correct_fraction, fast.correct_fraction);
  EXPECT_EQ(classic.final_bias, fast.final_bias);
  EXPECT_EQ(classic.protocol_rounds, fast.protocol_rounds);
  ASSERT_EQ(classic.stage1.size(), fast.stage1.size());
  for (std::size_t i = 0; i < classic.stage1.size(); ++i) {
    EXPECT_EQ(classic.stage1[i].phase, fast.stage1[i].phase);
    EXPECT_EQ(classic.stage1[i].newly_activated,
              fast.stage1[i].newly_activated);
    EXPECT_EQ(classic.stage1[i].newly_correct, fast.stage1[i].newly_correct);
    EXPECT_EQ(classic.stage1[i].total_activated,
              fast.stage1[i].total_activated);
  }
  ASSERT_EQ(classic.stage2.size(), fast.stage2.size());
  for (std::size_t i = 0; i < classic.stage2.size(); ++i) {
    EXPECT_EQ(classic.stage2[i].phase, fast.stage2[i].phase);
    EXPECT_EQ(classic.stage2[i].successful, fast.stage2[i].successful);
    EXPECT_EQ(classic.stage2[i].correct_fraction,
              fast.stage2[i].correct_fraction);
    EXPECT_EQ(classic.stage2[i].bias, fast.stage2[i].bias);
  }
  EXPECT_EQ(classic.desync_overhead, fast.desync_overhead);
  EXPECT_EQ(classic.clock_sync_rounds, fast.clock_sync_rounds);
  EXPECT_EQ(classic.clock_sync_messages, fast.clock_sync_messages);
  EXPECT_EQ(classic.measured_skew, fast.measured_skew);
}

/// The scenario on a given substrate / shard count.
template <typename Scenario>
Scenario on(Scenario scenario, EngineMode engine, std::size_t shards = 1) {
  scenario.engine = engine;
  scenario.shards = shards;
  return scenario;
}

// --- Deep equivalence on the breathe SoA specialization -----------------

TEST(BatchEngineTest, BroadcastIdenticalToClassic) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.probe_every = 16;  // exercises the probe path too
  for (std::size_t trial = 0; trial < 3; ++trial) {
    expect_detail_eq(run_broadcast(on(scenario, EngineMode::kClassic),
                                   0x5eed, trial),
                     run_broadcast(on(scenario, EngineMode::kBatch),
                                   0x5eed, trial));
  }
}

TEST(BatchEngineTest, BroadcastHeterogeneousIdenticalToClassic) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.heterogeneous_noise = true;
  expect_detail_eq(run_broadcast(on(scenario, EngineMode::kClassic), 0xfeed, 0),
                   run_broadcast(on(scenario, EngineMode::kBatch), 0xfeed, 0));
}

TEST(BatchEngineTest, BroadcastStage1OnlyIdenticalToClassic) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.stage1_only = true;
  expect_detail_eq(run_broadcast(on(scenario, EngineMode::kClassic), 0x5eed, 0),
                   run_broadcast(on(scenario, EngineMode::kBatch), 0x5eed, 0));
}

TEST(BatchEngineTest, BroadcastVariantRulesIdenticalToClassic) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.stage1_pick = Stage1Pick::kFirstMessage;
  scenario.stage2_subset = Stage2Subset::kPrefixSubset;
  expect_detail_eq(run_broadcast(on(scenario, EngineMode::kClassic), 0x5eed, 1),
                   run_broadcast(on(scenario, EngineMode::kBatch), 0x5eed, 1));
}

TEST(BatchEngineTest, MajorityIdenticalToClassic) {
  MajorityScenario scenario;
  scenario.n = 256;
  scenario.initial_set = 32;
  for (std::size_t trial = 0; trial < 2; ++trial) {
    expect_detail_eq(run_majority(on(scenario, EngineMode::kClassic),
                                  0x5eed, trial),
                     run_majority(on(scenario, EngineMode::kBatch),
                                  0x5eed, trial));
  }
}

TEST(BatchEngineTest, BoostIdenticalToClassic) {
  BoostScenario scenario;
  scenario.n = 512;
  scenario.initial_bias = 0.05;
  expect_detail_eq(run_boost(on(scenario, EngineMode::kClassic), 0x5eed, 0),
                   run_boost(on(scenario, EngineMode::kBatch), 0x5eed, 0));
}

// --- Dynamic environments: schedules and churn --------------------------
// The new layer must obey the same contract as everything else: classic ==
// batch == any shard count, bit for bit, for every Metrics counter and
// probe sample. These run with probes on so the convergence statistic is
// covered too.

BroadcastScenario dynamic_broadcast() {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.probe_every = 8;
  return scenario;
}

TEST(BatchEngineTest, EpsRampIdenticalToClassicAndShardInvariant) {
  BroadcastScenario scenario = dynamic_broadcast();
  scenario.schedule = EnvironmentSchedule::parse("ramp:0.4:0.15");
  const RunDetail classic =
      run_broadcast(on(scenario, EngineMode::kClassic), 0x5eed, 0);
  const RunDetail batch =
      run_broadcast(on(scenario, EngineMode::kBatch), 0x5eed, 0);
  expect_detail_eq(classic, batch);
  expect_detail_eq(batch,
                   run_broadcast(on(scenario, EngineMode::kBatch, 8),
                                 0x5eed, 0));
}

TEST(BatchEngineTest, NoiseBurstsIdenticalToClassicAndShardInvariant) {
  BroadcastScenario scenario = dynamic_broadcast();
  scenario.schedule = EnvironmentSchedule::parse("burst:0.1:16:0.02");
  for (std::size_t trial = 0; trial < 2; ++trial) {
    const RunDetail classic =
        run_broadcast(on(scenario, EngineMode::kClassic), 0x5eed, trial);
    const RunDetail batch =
        run_broadcast(on(scenario, EngineMode::kBatch), 0x5eed, trial);
    expect_detail_eq(classic, batch);
    expect_detail_eq(batch,
                     run_broadcast(on(scenario, EngineMode::kBatch, 7),
                                   0x5eed, trial));
  }
}

// The degenerate specs pin the batch churn loop's integer thresholds at
// their ends: sleep 1 / wake 1 toggles every agent every round (2^53,
// always fires), sleep 0 / wake 1 never puts anyone to sleep (0, never
// fires). The classic engine runs churn_step's bernoulli form.
TEST(BatchEngineTest, ChurnIdenticalToClassicAndShardInvariant) {
  for (const char* spec : {"0.01:0.1:0.25", "1:1", "0:1"}) {
    SCOPED_TRACE(spec);
    BroadcastScenario scenario = dynamic_broadcast();
    scenario.churn = ChurnSpec::parse(spec);
    for (std::size_t trial = 0; trial < 2; ++trial) {
      const RunDetail classic =
          run_broadcast(on(scenario, EngineMode::kClassic), 0x5eed, trial);
      const RunDetail batch =
          run_broadcast(on(scenario, EngineMode::kBatch), 0x5eed, trial);
      expect_detail_eq(classic, batch);
      for (const std::size_t shards : {3, 8}) {
        expect_detail_eq(batch,
                         run_broadcast(on(scenario, EngineMode::kBatch,
                                          shards),
                                       0x5eed, trial));
      }
    }
  }
}

TEST(BatchEngineTest, ChurnAndScheduleComposeAcrossSubstrates) {
  BroadcastScenario scenario = dynamic_broadcast();
  scenario.schedule = EnvironmentSchedule::parse("step:64:0.15");
  scenario.churn = ChurnSpec::parse("0.005:0.1");
  const RunDetail classic =
      run_broadcast(on(scenario, EngineMode::kClassic), 0xfeed, 0);
  const RunDetail batch =
      run_broadcast(on(scenario, EngineMode::kBatch), 0xfeed, 0);
  expect_detail_eq(classic, batch);
  expect_detail_eq(batch,
                   run_broadcast(on(scenario, EngineMode::kBatch, 8),
                                 0xfeed, 0));
}

TEST(BatchEngineTest, MajorityChurnIdenticalAcrossSubstrates) {
  MajorityScenario scenario;
  scenario.n = 256;
  scenario.initial_set = 32;
  scenario.probe_every = 8;
  scenario.churn = ChurnSpec::parse("0.005:0.1:0.25");
  const RunDetail classic =
      run_majority(on(scenario, EngineMode::kClassic), 0x5eed, 0);
  const RunDetail batch =
      run_majority(on(scenario, EngineMode::kBatch), 0x5eed, 0);
  expect_detail_eq(classic, batch);
  expect_detail_eq(batch,
                   run_majority(on(scenario, EngineMode::kBatch, 8),
                                0x5eed, 0));
}

// Churn conservation: every sent message is accounted for exactly once —
// delivered, dropped (collision or asleep recipient), or erased (never
// here). Catches double-counted or lost asleep drops in the shard merge.
TEST(BatchEngineTest, ChurnCountersConserveMessages) {
  BroadcastScenario scenario = dynamic_broadcast();
  scenario.churn = ChurnSpec::parse("0.01:0.1:0.25");
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const RunDetail detail =
        run_broadcast(on(scenario, EngineMode::kBatch, shards), 0x5eed, 0);
    const Metrics& m = detail.metrics;
    EXPECT_EQ(m.messages_sent, m.delivered + m.dropped + m.erased);
    EXPECT_GT(m.dropped, 0u);  // churn at 25% start-asleep must drop some
  }
}

// --- Shard-count invariance ---------------------------------------------
// The contract's new clause: the batch substrate partitioned into ANY
// number of shards produces the same bits as one shard — which the tests
// above tie to the classic reference. 3 is deliberately coprime with the
// population sizes (uneven last shard), 8 exceeds this machine's cores.

TEST(BatchEngineTest, BroadcastShardCountInvariant) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.probe_every = 16;
  const RunDetail one = run_broadcast(on(scenario, EngineMode::kBatch, 1),
                                      0x5eed, 0);
  for (const std::size_t shards : {2, 3, 8}) {
    expect_detail_eq(one, run_broadcast(on(scenario, EngineMode::kBatch,
                                           shards),
                                        0x5eed, 0));
  }
}

TEST(BatchEngineTest, BroadcastHeterogeneousShardCountInvariant) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.heterogeneous_noise = true;
  expect_detail_eq(
      run_broadcast(on(scenario, EngineMode::kBatch, 1), 0xfeed, 0),
      run_broadcast(on(scenario, EngineMode::kBatch, 8), 0xfeed, 0));
}

TEST(BatchEngineTest, BroadcastVariantRulesShardCountInvariant) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.stage1_pick = Stage1Pick::kFirstMessage;
  scenario.stage2_subset = Stage2Subset::kPrefixSubset;
  expect_detail_eq(
      run_broadcast(on(scenario, EngineMode::kBatch, 1), 0x5eed, 1),
      run_broadcast(on(scenario, EngineMode::kBatch, 5), 0x5eed, 1));
}

TEST(BatchEngineTest, MajorityShardCountInvariant) {
  MajorityScenario scenario;
  scenario.n = 256;
  scenario.initial_set = 32;
  expect_detail_eq(
      run_majority(on(scenario, EngineMode::kBatch, 1), 0x5eed, 0),
      run_majority(on(scenario, EngineMode::kBatch, 7), 0x5eed, 0));
}

TEST(BatchEngineTest, BoostShardCountInvariant) {
  BoostScenario scenario;
  scenario.n = 512;
  scenario.initial_bias = 0.05;
  expect_detail_eq(run_boost(on(scenario, EngineMode::kBatch, 1), 0x5eed, 0),
                   run_boost(on(scenario, EngineMode::kBatch, 8), 0x5eed, 0));
}

TEST(BatchEngineTest, ShardsBeyondPopulationClampHarmlessly) {
  BroadcastScenario scenario;
  scenario.n = 64;
  scenario.eps = 0.3;
  expect_detail_eq(
      run_broadcast(on(scenario, EngineMode::kBatch, 1), 0x5eed, 0),
      run_broadcast(on(scenario, EngineMode::kBatch, 200), 0x5eed, 0));
}

// --- Every registry entry: batch, classic, and sharded agree exactly ----

/// Full TrialOutcome equality: the outcome doubles AND the Metrics
/// counters. The counter fields are the point — TrialOutcome-only equality
/// was blind to a shard merge that loses or double-counts deliveries while
/// leaving success/rounds untouched.
void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.correct_fraction, b.correct_fraction) << what;
  expect_double_eq_nan(a.convergence_round, b.convergence_round,
                       what.c_str());
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.erased, b.erased) << what;
  EXPECT_EQ(a.flipped, b.flipped) << what;
}

/// The batch outcome of every registry entry, trials 0 and 1 of seed 0x5eed
/// at n = min(default_n, 256): the absolute anchor the agreement checks
/// below lack. A change to code every substrate shares (the topology's
/// neighbor map, a draw primitive, a stream key) shifts all engines alike
/// and passes every differential suite; it cannot pass this table.
/// Rows follow ScenarioRegistry::list() order (sorted by name), trial 0
/// then trial 1.
struct PinnedOutcome {
  const char* name;
  bool success;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::uint64_t erased;
  std::uint64_t flipped;
  std::uint64_t correct_fraction_bits;  ///< std::bit_cast of the double
};

constexpr PinnedOutcome kPinnedOutcomes[] = {
    {"baseline_aae", false, 1109, 283904,
     0, 0, 0, 0, 0x3fe4800000000000},
    {"baseline_aae", false, 1109, 283904,
     0, 0, 0, 0, 0x3fe3a00000000000},
    {"baseline_forward", false, 14, 1485,
     1029, 456, 0, 336, 0x3fe1400000000000},
    {"baseline_forward", false, 14, 1505,
     1038, 467, 0, 307, 0x3fe2600000000000},
    {"baseline_silent", true, 20375, 20375,
     20375, 0, 0, 4034, 0x3ff0000000000000},
    {"baseline_silent", true, 20561, 20561,
     20561, 0, 0, 4081, 0x3ff0000000000000},
    {"baseline_three_majority", false, 1109, 851712,
     0, 0, 0, 0, 0x3fe1200000000000},
    {"baseline_three_majority", false, 1109, 851712,
     0, 0, 0, 0, 0x3fdd000000000000},
    {"baseline_two_choices", false, 1109, 567808,
     0, 0, 0, 0, 0x3fe1000000000000},
    {"baseline_two_choices", false, 1109, 567808,
     0, 0, 0, 0, 0x3fe3000000000000},
    {"baseline_voter", false, 2218, 565709,
     358445, 207264, 0, 107551, 0x3fdf000000000000},
    {"baseline_voter", false, 2218, 565729,
     358475, 207254, 0, 107414, 0x3fe0e00000000000},
    {"boost", true, 1166, 298496,
     189049, 109447, 0, 47105, 0x3ff0000000000000},
    {"boost", true, 1166, 298496,
     189273, 109223, 0, 47250, 0x3ff0000000000000},
    {"broadcast", true, 2642, 549212,
     359551, 189661, 0, 107993, 0x3ff0000000000000},
    {"broadcast", true, 2642, 551612,
     360787, 190825, 0, 108274, 0x3ff0000000000000},
    {"broadcast_adversarial", false, 2642, 549212,
     359551, 189661, 0, 128, 0x0000000000000000},
    {"broadcast_adversarial", false, 2642, 551612,
     360787, 190825, 0, 128, 0x0000000000000000},
    {"broadcast_burst", true, 2642, 549212,
     359551, 189661, 0, 114519, 0x3ff0000000000000},
    {"broadcast_burst", true, 2642, 551612,
     360787, 190825, 0, 113430, 0x3ff0000000000000},
    {"broadcast_churn", true, 2642, 522764,
     332438, 190326, 0, 99919, 0x3ff0000000000000},
    {"broadcast_churn", true, 2642, 524553,
     333121, 191432, 0, 99966, 0x3ff0000000000000},
    {"broadcast_dynamic_rewire", false, 2642, 485612,
     322000, 163612, 0, 96554, 0x3feae00000000000},
    {"broadcast_dynamic_rewire", false, 2642, 479612,
     316954, 162658, 0, 95210, 0x3fed600000000000},
    {"broadcast_eps_ramp", true, 2642, 549212,
     359551, 189661, 0, 105894, 0x3ff0000000000000},
    {"broadcast_eps_ramp", true, 2642, 551612,
     360787, 190825, 0, 105699, 0x3ff0000000000000},
    {"broadcast_grid_r2", false, 2642, 162162,
     122632, 39530, 0, 36678, 0x3fd0800000000000},
    {"broadcast_grid_r2", false, 2642, 162162,
     122691, 39471, 0, 37107, 0x3fcd800000000000},
    {"broadcast_large", true, 2642, 549212,
     359551, 189661, 0, 107993, 0x3ff0000000000000},
    {"broadcast_large", true, 2642, 551612,
     360787, 190825, 0, 108274, 0x3ff0000000000000},
    {"broadcast_ring_k8", false, 2642, 36466,
     26644, 9822, 0, 7966, 0x3fb1000000000000},
    {"broadcast_ring_k8", false, 2642, 36466,
     26644, 9822, 0, 7904, 0x3fac000000000000},
    {"broadcast_small", true, 1206, 235206,
     153797, 81409, 0, 30649, 0x3ff0000000000000},
    {"broadcast_small", true, 1206, 236826,
     155142, 81684, 0, 30821, 0x3ff0000000000000},
    {"broadcast_smallworld", false, 2642, 43722,
     35515, 8207, 0, 10502, 0x3fb1000000000000},
    {"broadcast_smallworld", false, 2642, 74560,
     60590, 13970, 0, 18110, 0x3fa6000000000000},
    {"broadcast_stage1", true, 828, 84828,
     65513, 19315, 0, 19734, 0x3fe3a00000000000},
    {"broadcast_stage1", true, 828, 87228,
     66831, 20397, 0, 19978, 0x3fe6800000000000},
    {"broadcast_variant_rules", true, 2642, 549212,
     359551, 189661, 0, 107993, 0x3ff0000000000000},
    {"broadcast_variant_rules", true, 2642, 551612,
     360787, 190825, 0, 108274, 0x3ff0000000000000},
    {"desync", true, 2722, 583412,
     379105, 204307, 0, 113826, 0x3ff0000000000000},
    {"desync", true, 2722, 578612,
     376785, 201827, 0, 113124, 0x3ff0000000000000},
    {"desync_burst", true, 2722, 583412,
     379105, 204307, 0, 120886, 0x3ff0000000000000},
    {"desync_burst", true, 2722, 578612,
     376785, 201827, 0, 118756, 0x3ff0000000000000},
    {"desync_clock_sync", true, 2785, 573316,
     373420, 198592, 0, 112173, 0x3ff0000000000000},
    {"desync_clock_sync", true, 2818, 582425,
     377085, 203327, 0, 113335, 0x3ff0000000000000},
    {"majority", true, 2642, 632576,
     404388, 228188, 0, 121373, 0x3ff0000000000000},
    {"majority", true, 2642, 632576,
     404279, 228297, 0, 121526, 0x3ff0000000000000},
    {"majority_churn", true, 2642, 603170,
     374626, 228544, 0, 112472, 0x3ff0000000000000},
    {"majority_churn", true, 2642, 603083,
     374385, 228698, 0, 112551, 0x3ff0000000000000},
    {"majority_smallworld", false, 2642, 497022,
     337664, 159358, 0, 101033, 0x3fe4800000000000},
    {"majority_smallworld", false, 2642, 504088,
     341833, 162255, 0, 102522, 0x3fe5c00000000000},
};

void expect_outcome_pinned(const TrialOutcome& got, const PinnedOutcome& pin,
                           const std::string& what) {
  EXPECT_EQ(got.success, pin.success) << what;
  EXPECT_EQ(got.rounds, static_cast<double>(pin.rounds)) << what;
  EXPECT_EQ(got.messages, static_cast<double>(pin.messages)) << what;
  EXPECT_EQ(got.delivered, pin.delivered) << what;
  EXPECT_EQ(got.dropped, pin.dropped) << what;
  EXPECT_EQ(got.erased, pin.erased) << what;
  EXPECT_EQ(got.flipped, pin.flipped) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.correct_fraction),
            pin.correct_fraction_bits)
      << what << " correct_fraction " << got.correct_fraction;
}

TEST(BatchEngineTest, EveryRegistryEntryIdenticalOutcomes) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const std::vector<const ScenarioInfo*> entries = registry.list();
  ASSERT_EQ(std::size(kPinnedOutcomes), 2 * entries.size())
      << "every registry entry needs two kPinnedOutcomes rows";
  const PinnedOutcome* pin = kPinnedOutcomes;
  for (const ScenarioInfo* info : entries) {
    ScenarioOverrides batch_overrides;
    batch_overrides.n = std::min<std::size_t>(info->default_n, 256);
    batch_overrides.engine = EngineMode::kBatch;
    ScenarioOverrides classic_overrides = batch_overrides;
    classic_overrides.engine = EngineMode::kClassic;
    ScenarioOverrides sharded_overrides = batch_overrides;
    sharded_overrides.shards = 8;

    const TrialFn batch_fn = registry.make(info->name, batch_overrides);
    const TrialFn classic_fn = registry.make(info->name, classic_overrides);
    // Single-substrate entries reject a shard count rather than ignore it.
    TrialFn sharded_fn;
    if (info->supports_shards) {
      sharded_fn = registry.make(info->name, sharded_overrides);
    } else {
      EXPECT_THROW((void)registry.make(info->name, sharded_overrides),
                   std::invalid_argument)
          << info->name;
    }
    for (std::size_t trial = 0; trial < 2; ++trial, ++pin) {
      const TrialOutcome batch = batch_fn(0x5eed, trial);
      const TrialOutcome classic = classic_fn(0x5eed, trial);
      const std::string what =
          info->name + " trial " + std::to_string(trial);
      ASSERT_EQ(info->name, pin->name) << "kPinnedOutcomes row order";
      expect_outcome_pinned(batch, *pin, what + " (pinned)");
      expect_outcome_eq(classic, batch, what + " (classic vs batch)");
      if (sharded_fn) {
        expect_outcome_eq(batch, sharded_fn(0x5eed, trial),
                          what + " (batch vs 8 shards)");
      }
    }
  }
}

// --- Long Stage II phases (upper end of the 21-bit counter fields) ------

TEST(BatchEngineTest, LongFinalPhaseIdenticalToClassic) {
  Tuning tuning;
  tuning.final_mult = 300.0;  // m_final ~40k rounds, still < 2^21
  ASSERT_TRUE(breathe_fast_supported(
      Params::calibrated(256, 0.3, tuning)));

  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.tuning = tuning;
  expect_detail_eq(run_broadcast(on(scenario, EngineMode::kClassic), 0x5eed, 0),
                   run_broadcast(on(scenario, EngineMode::kBatch), 0x5eed, 0));

  BoostScenario boost;
  boost.n = 256;
  boost.eps = 0.3;
  boost.initial_bias = 0.05;
  boost.tuning = tuning;
  expect_detail_eq(run_boost(on(boost, EngineMode::kClassic), 0x5eed, 1),
                   run_boost(on(boost, EngineMode::kBatch), 0x5eed, 1));
}

// Trials on one BatchEngine recycle its buffers; interleaving different
// scenario shapes (and shard counts) through the same thread-local engine
// must not leak state between runs.
TEST(BatchEngineTest, ScratchReuseAcrossMixedTrialsIsClean) {
  BroadcastScenario big;
  big.n = 512;
  big.eps = 0.25;
  big.shards = 4;
  BroadcastScenario small;
  small.n = 128;
  small.eps = 0.3;
  const RunDetail fresh_small = run_broadcast(small, 0x5eed, 0);
  (void)run_broadcast(big, 0x5eed, 0);  // dirty the scratch: larger n, sharded
  const RunDetail reused_small = run_broadcast(small, 0x5eed, 0);
  expect_detail_eq(fresh_small, reused_small);
}

// --- Support predicate and fallback -------------------------------------

TEST(BatchEngineTest, SupportPredicateAcceptsExperimentSchedules) {
  EXPECT_TRUE(breathe_fast_supported(Params::calibrated(1024, 0.2)));
  EXPECT_TRUE(breathe_fast_supported(Params::calibrated(100000, 0.2)));
}

TEST(BatchEngineTest, SupportPredicateRejectsOverlongPhases) {
  // eps = 0.003 gives Stage II phases of ~4M rounds — past the 21-bit
  // packed counter fields, so the fast path must decline (and the trial
  // fns fall back to the classic engine).
  EXPECT_FALSE(breathe_fast_supported(Params::calibrated(1024, 0.003)));
}

// --- Reuse modes behave like fresh construction -------------------------

TEST(BatchEngineTest, PopulationReuseClearsEverything) {
  Population pop(8);
  pop.set_opinion(3, Opinion::kOne);
  pop.set_opinion(4, Opinion::kZero);
  pop.reuse(16);
  EXPECT_EQ(pop.size(), 16u);
  EXPECT_EQ(pop.opinionated(), 0u);
  EXPECT_EQ(pop.count(Opinion::kOne), 0u);
  EXPECT_FALSE(pop.has_opinion(3));
}

TEST(BatchEngineTest, PopulationCountedUpdatesMatchDirectOnes) {
  Population direct(16);
  Population counted(16);
  Population::Delta delta;
  direct.set_opinion(3, Opinion::kOne);
  direct.set_opinion(4, Opinion::kZero);
  direct.set_opinion(3, Opinion::kZero);  // re-decision
  counted.set_opinion_counted(3, Opinion::kOne, delta);
  counted.set_opinion_counted(4, Opinion::kZero, delta);
  counted.set_opinion_counted(3, Opinion::kZero, delta);
  counted.apply(delta);
  EXPECT_EQ(direct.opinionated(), counted.opinionated());
  EXPECT_EQ(direct.count(Opinion::kOne), counted.count(Opinion::kOne));
  EXPECT_EQ(direct.count(Opinion::kZero), counted.count(Opinion::kZero));
}

// --- Persistent sized pools ---------------------------------------------

TEST(BatchEngineTest, SizedPoolsArePersistentAndCachedBySize) {
  ThreadPool& a = ThreadPool::sized(3);
  ThreadPool& b = ThreadPool::sized(3);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(&ThreadPool::sized(0), &ThreadPool::shared());
  EXPECT_NE(&ThreadPool::sized(2), &a);
}

}  // namespace
}  // namespace flip
