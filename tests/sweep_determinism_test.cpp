// Determinism of the parallel sweep harness: every random draw is keyed by
// (master seed, trial, round, agent, purpose) — never by the worker that
// happened to run it — so thread count, shard count, and engine substrate
// must not change a single statistic. These tests pin the repo's
// reproducibility contract: every point of the `--threads {1,8}` x
// `--shards {1,2,8}` matrix agrees exactly, and so do `--engine batch` and
// `--engine classic`.

#include <gtest/gtest.h>

#include <string>

#include "cli/report.hpp"
#include "cli/sweep.hpp"

namespace flip::cli {
namespace {

void expect_points_eq(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const TrialSummary& s = a.points[i].summary;
    const TrialSummary& t = b.points[i].summary;
    EXPECT_EQ(s.trials, t.trials) << "point " << i;
    EXPECT_EQ(s.successes, t.successes) << "point " << i;
    EXPECT_EQ(s.success.estimate, t.success.estimate) << "point " << i;
    EXPECT_EQ(s.rounds.mean(), t.rounds.mean()) << "point " << i;
    EXPECT_EQ(s.rounds.min(), t.rounds.min()) << "point " << i;
    EXPECT_EQ(s.rounds.max(), t.rounds.max()) << "point " << i;
    EXPECT_EQ(s.messages.mean(), t.messages.mean()) << "point " << i;
    EXPECT_EQ(s.correct_fraction.mean(), t.correct_fraction.mean())
        << "point " << i;
    EXPECT_EQ(s.converged, t.converged) << "point " << i;
    if (s.converged != 0) {
      EXPECT_EQ(s.convergence_rounds.mean(), t.convergence_rounds.mean())
          << "point " << i;
      EXPECT_EQ(s.convergence_rounds.min(), t.convergence_rounds.min())
          << "point " << i;
      EXPECT_EQ(s.convergence_rounds.max(), t.convergence_rounds.max())
          << "point " << i;
    }
  }
}

TEST(SweepDeterminismTest, ThreadCountDoesNotChangeResults) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {128, 256};
  spec.trials = 6;
  spec.threads = 1;
  const SweepResult serial = run_sweep(spec);
  spec.threads = 8;
  const SweepResult parallel = run_sweep(spec);
  expect_points_eq(serial, parallel);
}

TEST(SweepDeterminismTest, ThreadCountDoesNotChangeBaselineResults) {
  SweepSpec spec;
  spec.scenario = "baseline_forward";
  spec.ns = {128};
  spec.trials = 8;
  spec.threads = 1;
  const SweepResult serial = run_sweep(spec);
  spec.threads = 8;
  const SweepResult parallel = run_sweep(spec);
  expect_points_eq(serial, parallel);
}

TEST(SweepDeterminismTest, EngineSubstratesAgreeOnSweepResults) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.trials = 4;
  spec.engine = EngineMode::kBatch;
  const SweepResult batch = run_sweep(spec);
  spec.engine = EngineMode::kClassic;
  const SweepResult classic = run_sweep(spec);
  expect_points_eq(batch, classic);
}

// The full parallelism matrix: trial-level threads x intra-trial shards.
// Every combination must reproduce the serial, unsharded sweep exactly —
// including the corner where 8 trial threads each fan out 8 shards onto
// the same 8-thread pool.
TEST(SweepDeterminismTest, ThreadsByShardsMatrixAgreesExactly) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {128, 256};
  spec.trials = 6;
  spec.threads = 1;
  spec.shards = 1;
  const SweepResult reference = run_sweep(spec);
  for (const std::size_t threads : {1, 8}) {
    for (const std::size_t shards : {1, 2, 8}) {
      if (threads == 1 && shards == 1) continue;
      spec.threads = threads;
      spec.shards = shards;
      const SweepResult result = run_sweep(spec);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      expect_points_eq(reference, result);
    }
  }
}

// The dynamic-environment scenarios (schedule lottery + churn events) run
// through the same contract: every point of the threads x shards matrix,
// and the substrate A/B, agree exactly — including the convergence-round
// statistics their probe series feed.
TEST(SweepDeterminismTest, DynamicScenariosAgreeAcrossTheMatrix) {
  for (const char* scenario_name :
       {"broadcast_burst", "broadcast_churn", "broadcast_eps_ramp"}) {
    SweepSpec spec;
    spec.scenario = scenario_name;
    spec.ns = {128};
    spec.trials = 4;
    spec.threads = 1;
    spec.shards = 1;
    const SweepResult reference = run_sweep(spec);
    SCOPED_TRACE(scenario_name);

    spec.threads = 8;
    spec.shards = 8;
    expect_points_eq(reference, run_sweep(spec));

    spec.threads = 1;
    spec.shards = 1;
    spec.engine = EngineMode::kClassic;
    expect_points_eq(reference, run_sweep(spec));
  }
}

// The sparse-topology scenarios run through the same contract: every
// preset graph family (including the per-round dynamic rewiring and the
// churn+smallworld combination) agrees exactly across the threads x shards
// matrix and the substrate A/B.
TEST(SweepDeterminismTest, TopologyScenariosAgreeAcrossTheMatrix) {
  for (const char* scenario_name :
       {"broadcast_ring_k8", "broadcast_grid_r2", "broadcast_smallworld",
        "majority_smallworld", "broadcast_dynamic_rewire"}) {
    SweepSpec spec;
    spec.scenario = scenario_name;
    spec.ns = {128};
    spec.trials = 4;
    spec.threads = 1;
    spec.shards = 1;
    const SweepResult reference = run_sweep(spec);
    SCOPED_TRACE(scenario_name);

    spec.threads = 8;
    spec.shards = 8;
    expect_points_eq(reference, run_sweep(spec));

    spec.threads = 1;
    spec.shards = 1;
    spec.engine = EngineMode::kClassic;
    expect_points_eq(reference, run_sweep(spec));
  }
}

// The acceptance bar for the topology layer: a --topology ring override on
// broadcast_ring_k8 renders BYTE-stable flipsim-sweep-v1 JSON across
// --threads {1,8}. Wall-clock fields are the only nondeterministic outputs
// (they are measurements, not results), so they are zeroed on both sides;
// every remaining byte — params, counters, statistics — must agree.
TEST(SweepDeterminismTest, TopologySweepJsonIsByteStableAcrossThreads) {
  SweepSpec spec;
  spec.scenario = "broadcast_ring_k8";
  spec.topology = TopologySpec::parse("ring");
  spec.ns = {256};
  spec.trials = 6;
  spec.threads = 1;
  SweepResult serial = run_sweep(spec);
  spec.threads = 8;
  SweepResult parallel = run_sweep(spec);
  const auto normalize = [](SweepResult& result) {
    result.wall_seconds = 0.0;
    result.spec.threads = 0;  // 1 vs 8 by construction; not a result
    for (SweepPoint& point : result.points) {
      point.summary.wall_seconds = 0.0;
      point.summary.trial_seconds = {};
    }
  };
  normalize(serial);
  normalize(parallel);
  const std::string a = sweep_to_json(serial);
  EXPECT_EQ(a, sweep_to_json(parallel));
  // The rendered params name the effective graph.
  EXPECT_NE(a.find("\"topology\": \"ring(k=8)\""), std::string::npos) << a;
}

// Shards must also commute with the substrate A/B: a sharded batch sweep
// equals the classic sweep (which has no shards at all).
TEST(SweepDeterminismTest, ShardedBatchSweepMatchesClassicSweep) {
  SweepSpec spec;
  spec.scenario = "majority";
  spec.ns = {128};
  spec.trials = 4;
  spec.engine = EngineMode::kClassic;
  const SweepResult classic = run_sweep(spec);
  spec.engine = EngineMode::kBatch;
  spec.shards = 8;
  const SweepResult sharded = run_sweep(spec);
  expect_points_eq(classic, sharded);
}

}  // namespace
}  // namespace flip::cli
