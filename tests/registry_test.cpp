#include "workload/registry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

namespace flip {
namespace {

TEST(RegistryTest, ListIsNonEmptyAndSorted) {
  const auto infos = ScenarioRegistry::instance().list();
  ASSERT_GE(infos.size(), 10u);
  for (std::size_t i = 1; i < infos.size(); ++i) {
    EXPECT_LT(infos[i - 1]->name, infos[i]->name);
  }
  for (const ScenarioInfo* info : infos) {
    EXPECT_FALSE(info->summary.empty()) << info->name;
    EXPECT_FALSE(info->problem.empty()) << info->name;
    EXPECT_GT(info->default_n, 0u) << info->name;
    EXPECT_GT(info->default_eps, 0.0) << info->name;
    EXPECT_FALSE(info->channels.empty()) << info->name;
  }
}

TEST(RegistryTest, FindAndContains) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  ASSERT_NE(registry.find("broadcast_small"), nullptr);
  EXPECT_EQ(registry.find("broadcast_small")->problem, "broadcast");
  EXPECT_TRUE(registry.contains("majority"));
  EXPECT_FALSE(registry.contains("no_such_scenario"));
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);
}

// The registry's whole point: a scenario cannot be registered without
// being executable. Every entry must construct its TrialFn and survive one
// full execution at a small population size.
TEST(RegistryTest, EveryScenarioConstructsAndRuns) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const ScenarioInfo* info : registry.list()) {
    ScenarioOverrides overrides;
    overrides.n = 128;  // keep Debug runs fast; every scenario accepts it
    overrides.eps = 0.3;
    const TrialFn fn = registry.make(info->name, overrides);
    ASSERT_TRUE(fn) << info->name;
    const TrialOutcome outcome = fn(/*seed=*/0xF00D, /*trial=*/0);
    EXPECT_GT(outcome.rounds, 0.0) << info->name;
    EXPECT_GT(outcome.messages, 0.0) << info->name;
    EXPECT_GE(outcome.correct_fraction, 0.0) << info->name;
    EXPECT_LE(outcome.correct_fraction, 1.0) << info->name;
  }
}

TEST(RegistryTest, TrialFnsAreDeterministic) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  ScenarioOverrides overrides;
  overrides.n = 128;
  const TrialFn a = registry.make("broadcast_small", overrides);
  const TrialFn b = registry.make("broadcast_small", overrides);
  const TrialOutcome oa = a(42, 1);
  const TrialOutcome ob = b(42, 1);
  EXPECT_EQ(oa.success, ob.success);
  EXPECT_DOUBLE_EQ(oa.rounds, ob.rounds);
  EXPECT_DOUBLE_EQ(oa.messages, ob.messages);
  EXPECT_DOUBLE_EQ(oa.correct_fraction, ob.correct_fraction);
}

TEST(RegistryTest, DynamicEnvironmentDefaultsResolveAndOverride) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();

  // Dynamic entries carry their preset as the default...
  const ScenarioConfig burst = registry.resolve("broadcast_burst", {});
  EXPECT_TRUE(burst.schedule.enabled());
  EXPECT_DOUBLE_EQ(burst.schedule.burst_prob, 0.08);
  const ScenarioConfig churny = registry.resolve("majority_churn", {});
  EXPECT_TRUE(churny.churn.enabled());
  EXPECT_DOUBLE_EQ(churny.churn.start_asleep, 0.25);

  // ...an explicit override replaces the preset wholesale...
  ScenarioOverrides override_schedule;
  override_schedule.schedule = EnvironmentSchedule::parse("step:10:0.3");
  const ScenarioConfig stepped =
      registry.resolve("broadcast_burst", override_schedule);
  EXPECT_DOUBLE_EQ(stepped.schedule.burst_prob, 0.0);
  ASSERT_EQ(stepped.schedule.segments.size(), 1u);

  // ...the classic entries stay static...
  EXPECT_FALSE(registry.resolve("broadcast", {}).schedule.enabled());
  EXPECT_FALSE(registry.resolve("broadcast", {}).churn.enabled());

  // ...and invalid environment overrides fail resolution, naming the
  // scenario.
  ScenarioOverrides bad;
  bad.churn = ChurnSpec{};
  bad.churn->sleep_prob = 2.0;
  EXPECT_THROW(registry.resolve("broadcast", bad), std::invalid_argument);

  // Scenarios whose factories cannot honor an override must reject it —
  // running the static environment while reporting the override in the
  // output params would mislabel the data.
  ScenarioOverrides churn_override;
  churn_override.churn = ChurnSpec{};
  churn_override.churn->sleep_prob = 0.01;
  churn_override.churn->wake_prob = 0.1;
  EXPECT_THROW(registry.resolve("boost", churn_override),
               std::invalid_argument);
  EXPECT_THROW(registry.resolve("desync", churn_override),
               std::invalid_argument);
  EXPECT_NO_THROW(registry.resolve("majority", churn_override));
  ScenarioOverrides schedule_override;
  schedule_override.schedule = EnvironmentSchedule::parse("step:10:0.3");
  EXPECT_THROW(registry.resolve("baseline_voter", schedule_override),
               std::invalid_argument);
  EXPECT_THROW(registry.resolve("broadcast_adversarial", schedule_override),
               std::invalid_argument);
  EXPECT_NO_THROW(registry.resolve("desync", schedule_override));
}

TEST(RegistryTest, TopologyDefaultsResolveAndOverride) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();

  // The preset sparse entries carry their graph family as the default...
  EXPECT_EQ(registry.resolve("broadcast_ring_k8", {}).topology.describe(),
            "ring(k=8)");
  EXPECT_EQ(registry.resolve("broadcast_grid_r2", {}).topology.describe(),
            "grid(r=2)");
  EXPECT_EQ(registry.resolve("broadcast_smallworld", {}).topology.kind,
            TopologyKind::kSmallWorld);
  EXPECT_EQ(registry.resolve("majority_smallworld", {}).topology.kind,
            TopologyKind::kSmallWorld);
  EXPECT_EQ(registry.resolve("broadcast_dynamic_rewire", {}).topology.kind,
            TopologyKind::kDynamic);

  // ...the classic entries stay complete...
  EXPECT_TRUE(registry.resolve("broadcast", {}).topology.complete());
  EXPECT_TRUE(registry.resolve("majority", {}).topology.complete());

  // ...an explicit override replaces the preset wholesale...
  ScenarioOverrides to_grid;
  to_grid.topology = TopologySpec::parse("grid:1");
  EXPECT_EQ(registry.resolve("broadcast", to_grid).topology.describe(),
            "grid(r=1)");
  ScenarioOverrides to_complete;
  to_complete.topology = TopologySpec{};
  EXPECT_TRUE(registry.resolve("broadcast_ring_k8", to_complete)
                  .topology.complete());

  // ...scenarios whose factories ignore the graph reject sparse overrides
  // (running the complete graph while reporting "ring" in the output
  // params would mislabel the data); a complete override is the default
  // behavior and passes everywhere...
  ScenarioOverrides sparse;
  sparse.topology = TopologySpec::parse("ring:8");
  EXPECT_THROW(registry.resolve("desync", sparse), std::invalid_argument);
  EXPECT_THROW(registry.resolve("baseline_voter", sparse),
               std::invalid_argument);
  EXPECT_THROW(registry.resolve("broadcast_adversarial", sparse),
               std::invalid_argument);
  EXPECT_NO_THROW(registry.resolve("broadcast", sparse));
  EXPECT_NO_THROW(registry.resolve("boost", sparse));
  EXPECT_NO_THROW(registry.resolve("desync", to_complete));

  // ...the surrogate engine rejects any effective sparse graph with an
  // actionable message naming the scenario and the topology...
  ScenarioOverrides sparse_surrogate = sparse;
  sparse_surrogate.engine = EngineMode::kSurrogate;
  try {
    const ScenarioConfig config =
        registry.resolve("broadcast", sparse_surrogate);
    FAIL() << "surrogate accepted a sparse graph: "
           << config.topology.describe();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broadcast"), std::string::npos) << what;
    EXPECT_NE(what.find("ring(k=8)"), std::string::npos) << what;
    EXPECT_NE(what.find("--engine batch"), std::string::npos) << what;
  }

  // ...and a graph that does not fit n fails resolve() up front, naming
  // the scenario (a ring needs n >= k + 2; a torus needs a factorization
  // with both sides >= 2*radius + 1).
  ScenarioOverrides tight;
  tight.n = 8;
  tight.topology = TopologySpec::parse("ring:8");
  EXPECT_THROW(registry.resolve("broadcast", tight), std::invalid_argument);
  ScenarioOverrides prime;
  prime.n = 127;  // prime: no 2-D factorization at all
  EXPECT_THROW(registry.resolve("broadcast_grid_r2", prime),
               std::invalid_argument);
}

// The new sparse-topology entries run end to end on BOTH substrates with a
// shard fan-out, and the three executions agree bit-for-bit — the
// registry-level statement of the acceptance bar (the differential suite
// drives the same invariant over random configs).
TEST(RegistryTest, TopologyEntriesRunBitEqualAcrossSubstratesAndShards) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"broadcast_ring_k8", "broadcast_grid_r2", "broadcast_smallworld",
        "majority_smallworld", "broadcast_dynamic_rewire"}) {
    ScenarioOverrides overrides;
    overrides.n = 128;
    overrides.engine = EngineMode::kBatch;
    const TrialOutcome batch = registry.make(name, overrides)(0xF00D, 0);
    overrides.engine = EngineMode::kClassic;
    const TrialOutcome classic = registry.make(name, overrides)(0xF00D, 0);
    overrides.engine = EngineMode::kBatch;
    overrides.shards = 8;
    const TrialOutcome sharded = registry.make(name, overrides)(0xF00D, 0);
    for (const TrialOutcome* other : {&classic, &sharded}) {
      EXPECT_EQ(batch.success, other->success) << name;
      EXPECT_EQ(batch.rounds, other->rounds) << name;
      EXPECT_EQ(batch.messages, other->messages) << name;
      EXPECT_EQ(batch.correct_fraction, other->correct_fraction) << name;
      EXPECT_EQ(batch.delivered, other->delivered) << name;
      EXPECT_EQ(batch.dropped, other->dropped) << name;
      EXPECT_EQ(batch.erased, other->erased) << name;
      EXPECT_EQ(batch.flipped, other->flipped) << name;
    }
    EXPECT_GT(batch.messages, 0.0) << name;
  }
}

// The single-substrate entries (desync, the baselines, the adversarial
// ablation) run unsharded whatever the shard count says, so resolve()
// rejects shards > 1 on them with a message naming the entry, instead of
// labelling an unsharded run as sharded. shards = 1 passes everywhere.
// Only the batch engine shards a trial, and only on a breathe entry. The
// single-substrate entries reject shards > 1 outright; the classic and
// surrogate engines run unsharded, so resolve() rejects shards > 1 on them
// with a message naming the entry and the engine, instead of running an
// unsharded cell under a sharded label.
TEST(RegistryTest, ShardsRejectedOnSingleSubstrateEntries) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const std::set<std::string> single_substrate = {
      "baseline_aae",          "baseline_forward",
      "baseline_silent",       "baseline_three_majority",
      "baseline_two_choices",  "baseline_voter",
      "broadcast_adversarial", "desync",
      "desync_burst",          "desync_clock_sync"};
  const auto expect_rejected = [&registry](const std::string& name,
                                           ScenarioOverrides overrides,
                                           const std::string& names) {
    overrides.shards = 1;
    EXPECT_NO_THROW((void)registry.resolve(name, overrides)) << name;
    overrides.shards = 8;
    try {
      (void)registry.resolve(name, overrides);
      ADD_FAILURE() << name << " accepted shards = 8 (" << names << ")";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(names), std::string::npos) << what;
    }
  };
  for (const ScenarioInfo* info : registry.list()) {
    const bool single = single_substrate.count(info->name) != 0;
    EXPECT_EQ(info->batch_breathe, !single) << info->name;
    if (single) {
      expect_rejected(info->name, ScenarioOverrides{}, "shards");
      continue;
    }
    ScenarioOverrides sharded;
    sharded.shards = 8;
    sharded.engine = EngineMode::kBatch;
    EXPECT_NO_THROW((void)registry.resolve(info->name, sharded))
        << info->name;
    for (const EngineMode engine :
         {EngineMode::kClassic, EngineMode::kSurrogate}) {
      if (engine == EngineMode::kSurrogate && !info->supports_surrogate()) {
        continue;
      }
      ScenarioOverrides overrides;
      overrides.engine = engine;
      expect_rejected(info->name, overrides,
                      "--engine " + std::string(engine_mode_name(engine)));
    }
  }
}

TEST(RegistryTest, ResolveAppliesDefaultsAndOverrides) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const ScenarioConfig defaults =
      registry.resolve("broadcast", ScenarioOverrides{});
  EXPECT_EQ(defaults.n, 1024u);
  EXPECT_DOUBLE_EQ(defaults.eps, 0.2);
  EXPECT_EQ(defaults.channel, kChannelBsc);

  ScenarioOverrides overrides;
  overrides.n = 512;
  overrides.eps = 0.25;
  overrides.channel = std::string(kChannelHeterogeneous);
  const ScenarioConfig resolved = registry.resolve("broadcast", overrides);
  EXPECT_EQ(resolved.n, 512u);
  EXPECT_DOUBLE_EQ(resolved.eps, 0.25);
  EXPECT_EQ(resolved.channel, kChannelHeterogeneous);
}

TEST(RegistryTest, ResolveValidates) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  EXPECT_THROW(registry.resolve("no_such_scenario", ScenarioOverrides{}),
               std::invalid_argument);
  EXPECT_THROW(registry.make("no_such_scenario", ScenarioOverrides{}),
               std::invalid_argument);

  ScenarioOverrides bad_channel;
  bad_channel.channel = std::string(kChannelHeterogeneous);
  EXPECT_THROW(registry.resolve("majority", bad_channel),
               std::invalid_argument);

  ScenarioOverrides bad_eps;
  bad_eps.eps = 0.7;
  EXPECT_THROW(registry.resolve("broadcast", bad_eps),
               std::invalid_argument);

  ScenarioOverrides bad_n;
  bad_n.n = 1;
  EXPECT_THROW(registry.resolve("broadcast", bad_n), std::invalid_argument);
}

// Each entry declares the domain its factory enforces (min_n,
// calibrates_params) and resolve() checks it, so a sweep grid with one
// point outside it fails before its first point instead of mid-sweep.

std::string resolve_error(const std::string& name,
                          const ScenarioOverrides& overrides) {
  try {
    (void)ScenarioRegistry::instance().resolve(name, overrides);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RegistryTest, ParamsEntriesRejectNBelowFour) {
  ScenarioOverrides tiny;
  tiny.n = 3;
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    if (info->calibrates_params) {
      EXPECT_EQ(resolve_error(info->name, tiny),
                "scenario '" + info->name + "': n must be >= " +
                    std::to_string(info->min_n) + ", got 3");
      EXPECT_GE(info->min_n, 4u) << info->name;
    } else {
      EXPECT_EQ(resolve_error(info->name, tiny), "") << info->name;
    }
  }
}

TEST(RegistryTest, ParamsEntriesRejectEpsOneHalf) {
  ScenarioOverrides half;
  half.eps = 0.5;
  std::size_t calibrated = 0;
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    if (info->calibrates_params) {
      ++calibrated;
      EXPECT_EQ(resolve_error(info->name, half),
                "scenario '" + info->name +
                    "': eps must be in (0, 0.5) to calibrate its schedule, "
                    "got 0.5");
    } else {
      // The baselines take the channel's closed domain.
      EXPECT_EQ(resolve_error(info->name, half), "") << info->name;
    }
  }
  EXPECT_EQ(calibrated, 20u) << "the breathe families and desync";
}

TEST(RegistryTest, MajorityEntriesRejectNBelowTheirInitialSet) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"majority", "majority_churn", "majority_smallworld"}) {
    const bool surrogate = registry.find(name)->supports_surrogate();
    for (const EngineMode engine :
         {EngineMode::kBatch, EngineMode::kSurrogate}) {
      if (engine == EngineMode::kSurrogate && !surrogate) continue;
      ScenarioOverrides overrides;
      overrides.engine = engine;
      overrides.n = 63;
      EXPECT_EQ(resolve_error(name, overrides),
                std::string("scenario '") + name +
                    "': n must be >= 64, got 63");
      // The smallest accepted n builds and runs: the initial set of 64
      // is the whole population.
      overrides.n = 64;
      EXPECT_NO_THROW((void)registry.make(name, overrides)(0x5eed, 0))
          << name << " " << engine_mode_name(engine);
    }
  }
}

// supports_surrogate() is derived, not declared: a breathe entry whose
// default graph is complete. A sparse preset is a breathe entry the
// surrogate has no graph model for, so its rejection names the topology,
// and with the graph overridden back to complete it is the entry it was
// built from.
TEST(RegistryTest, SurrogateRuleFollowsTheEffectiveTopology) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  EXPECT_FALSE(registry.find("broadcast_ring_k8")->supports_surrogate());
  ScenarioOverrides overrides;
  overrides.engine = EngineMode::kSurrogate;
  overrides.n = 1024;
  overrides.eps = 0.2;
  EXPECT_EQ(resolve_error("broadcast_ring_k8", overrides),
            "scenario 'broadcast_ring_k8': the mean-field surrogate engine "
            "models the complete interaction graph only, not topology "
            "'ring(k=8)'; use --engine batch or --engine classic");

  overrides.topology = TopologySpec{};
  const TrialFn ring = registry.make("broadcast_ring_k8", overrides);
  const TrialFn broadcast = registry.make("broadcast", overrides);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const TrialOutcome a = ring(0x5eed, trial);
    const TrialOutcome b = broadcast(0x5eed, trial);
    EXPECT_EQ(a.success, b.success) << trial;
    EXPECT_EQ(bits(a.rounds), bits(b.rounds)) << trial;
    EXPECT_EQ(bits(a.messages), bits(b.messages)) << trial;
    EXPECT_EQ(bits(a.correct_fraction), bits(b.correct_fraction)) << trial;
    EXPECT_EQ(bits(a.convergence_round), bits(b.convergence_round)) << trial;
    EXPECT_EQ(a.delivered, b.delivered) << trial;
    EXPECT_EQ(a.flipped, b.flipped) << trial;
  }
}

TEST(RegistryTest, AddRejectsBadEntries) {
  ScenarioRegistry registry;
  const auto factory = [](const ScenarioConfig&) {
    return TrialFn([](std::uint64_t, std::size_t) { return TrialOutcome{}; });
  };
  registry.add({"one", "s", "p", 64, 0.2, {"bsc"}}, factory);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_THROW(registry.add({"one", "s", "p", 64, 0.2, {"bsc"}}, factory),
               std::invalid_argument);  // duplicate
  EXPECT_THROW(registry.add({"", "s", "p", 64, 0.2, {"bsc"}}, factory),
               std::invalid_argument);  // empty name
  EXPECT_THROW(registry.add({"two", "s", "p", 0, 0.2, {"bsc"}}, factory),
               std::invalid_argument);  // default_n == 0
  EXPECT_THROW(registry.add({"three", "s", "p", 64, 0.2, {}}, factory),
               std::invalid_argument);  // no channels
  EXPECT_THROW(registry.add({"four", "s", "p", 64, 0.2, {"bsc"}}, nullptr),
               std::invalid_argument);  // no factory
}

}  // namespace
}  // namespace flip
