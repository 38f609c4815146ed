// Property-based differential suite over RANDOM scenario configurations.
//
// The hand-picked equivalence tests (batch_engine_test.cpp) pin known
// shapes; this suite drives the same invariants across the configuration
// space the registry actually exposes — random n, eps, shard counts,
// schedules, and churn — so a substrate divergence that only appears for
// some unanticipated combination still has ~100 chances per invariant to
// surface. Each iteration is deterministic (tests/support/proptest.hpp):
// the failure label's iteration number replays the exact configuration.
//
// Invariants:
//  1. Substrate/shard equality — batch == classic == sharded, bit-exact
//     down to the delivered/dropped/erased/flipped counters.
//  2. Thread-count invariance of run_trials' deterministic fields.
//  3. Message conservation — sent == delivered + dropped + erased under
//     random schedules and churn.
//  4. Monotonicity — more channel noise cannot help the protocol
//     (statistical, fixed seed set).
//  5. RNG lane disjointness — the purpose-keyed round streams never share
//     a key or a first word across purposes, rounds, trials, or agents.
//  6. Surrogate error bands — the mean-field engine stays within the
//     documented band of BatchEngine over random overrides (schedules,
//     churn) on every supported entry.
//  7. Surrogate registry coverage — every supports_surrogate entry runs
//     under the surrogate engine with finite, in-range outputs; every
//     other entry is rejected at resolve().

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#if FLIP_HAVE_RAPIDCHECK
#include <rapidcheck/gtest.h>
#endif

#include "cli/sweep.hpp"
#include "core/environment.hpp"
#include "core/topology.hpp"
#include "sim/trial.hpp"
#include "support/proptest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"

namespace flip {
namespace {

void expect_double_eq_nan(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << what;
}

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.correct_fraction, b.correct_fraction) << what;
  expect_double_eq_nan(a.convergence_round, b.convergence_round, what);
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.erased, b.erased) << what;
  EXPECT_EQ(a.flipped, b.flipped) << what;
}

/// A random valid eps schedule: a step, a ramp, or a burst lottery.
EnvironmentSchedule random_schedule(proptest::Gen& gen) {
  EnvironmentSchedule schedule;
  switch (gen.range(0, 2)) {
    case 0: {  // step to a new eps at round 0 or mid-run
      const double eps = gen.real(0.05, 0.45);
      schedule.segments.push_back(
          EpsSegment{gen.range(0, 64), 0, eps, eps});
      break;
    }
    case 1: {  // ramp between two eps levels over a prefix (0 = whole run)
      const Round end = gen.chance(0.5) ? gen.range(16, 256) : 0;
      schedule.segments.push_back(
          EpsSegment{0, end, gen.real(0.05, 0.45), gen.real(0.05, 0.45)});
      break;
    }
    default: {  // correlated noise bursts
      schedule.burst_prob = gen.real(0.05, 0.3);
      schedule.burst_len = gen.range(4, 32);
      schedule.burst_eps = gen.real(0.02, 0.2);
      break;
    }
  }
  schedule.validate();
  return schedule;
}

/// A random valid churn spec (always enabled; mild rates so the protocol
/// still runs its full course instead of dying at round 1).
ChurnSpec random_churn(proptest::Gen& gen) {
  ChurnSpec churn;
  churn.sleep_prob = gen.real(0.0, 0.03);
  churn.wake_prob = gen.real(0.05, 0.5);
  churn.start_asleep = gen.chance(0.5) ? gen.real(0.0, 0.3) : 0.0;
  churn.validate();
  return churn;
}

/// A random valid topology spec across every family, sized so it resolves
/// against any n >= 64 (ring/rewired degrees stay <= 16; grid radius <= 2
/// paired with the grid-friendly n set below).
TopologySpec random_topology(proptest::Gen& gen) {
  TopologySpec spec;
  switch (gen.range(0, 4)) {
    case 0:
      break;  // complete: the identity path must stay in the mix
    case 1:
      spec.kind = TopologyKind::kRing;
      spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
      break;
    case 2:
      spec.kind = TopologyKind::kGrid;
      spec.radius = static_cast<std::size_t>(gen.range(1, 2));
      break;
    case 3:
      spec.kind = TopologyKind::kSmallWorld;
      spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
      spec.rewire_prob = gen.real(0.0, 0.5);
      break;
    default:
      spec.kind = TopologyKind::kDynamic;
      spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
      spec.rewire_prob = gen.real(0.05, 0.5);
      break;
  }
  spec.validate();
  return spec;
}

/// A random configuration against one registry entry: small n, random
/// shard count, and (where the scenario supports them) a random schedule,
/// churn spec, and topology. `overrides.engine` is left for the caller.
/// The n draw respects the EFFECTIVE topology (the override when one is
/// drawn, the entry's default otherwise — the preset topology entries are
/// sparse with no override at all): a torus needs n with two divisors of
/// at least 2*radius + 1 each, so grid configs draw from a friendly set
/// instead of failing resolve() on a prime n.
ScenarioOverrides random_overrides(proptest::Gen& gen,
                                   const ScenarioInfo& info) {
  ScenarioOverrides overrides;
  overrides.n = gen.range(64, 256);
  if (info.supports_schedule && gen.chance(0.5)) {
    overrides.schedule = random_schedule(gen);
  }
  if (info.supports_churn && gen.chance(0.3)) {
    overrides.churn = random_churn(gen);
  }
  TopologySpec effective = info.default_topology;
  if (info.batch_breathe && gen.chance(0.5)) {
    effective = random_topology(gen);
    overrides.topology = effective;
  }
  if (effective.kind == TopologyKind::kGrid) {
    overrides.n = static_cast<std::size_t>(gen.pick(
        {std::uint64_t{64}, std::uint64_t{100}, std::uint64_t{128},
         std::uint64_t{144}, std::uint64_t{196}, std::uint64_t{256}}));
  }
  return overrides;
}

// Invariant 1: for ANY configuration the registry accepts, the batch
// engine, the classic engine, and the sharded batch engine agree on every
// outcome field and every counter. 100+ random configurations across all
// registry entries.
TEST(PropertyDifferentialTest, RandomConfigSubstrateAndShardEquality) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const std::vector<const ScenarioInfo*> entries = registry.list();
  proptest::check(
      "substrate_shard_equality", 100, 0x5ca1e, [&](proptest::Gen gen, int) {
        const ScenarioInfo& info = *gen.pick_from(entries);
        ScenarioOverrides batch_overrides = random_overrides(gen, info);
        batch_overrides.engine = EngineMode::kBatch;
        ScenarioOverrides classic_overrides = batch_overrides;
        classic_overrides.engine = EngineMode::kClassic;
        ScenarioOverrides sharded_overrides = batch_overrides;
        sharded_overrides.shards = static_cast<std::size_t>(
            gen.pick({std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{5},
                      std::uint64_t{8}, std::uint64_t{16}}));

        const std::uint64_t seed = gen.u64();
        const std::size_t trial = static_cast<std::size_t>(gen.index(4));
        const TrialOutcome batch =
            registry.make(info.name, batch_overrides)(seed, trial);
        const TrialOutcome classic =
            registry.make(info.name, classic_overrides)(seed, trial);
        const std::string what =
            info.name + " n=" + std::to_string(*batch_overrides.n) +
            " shards=" + std::to_string(*sharded_overrides.shards) +
            (batch_overrides.schedule ? " +schedule" : "") +
            (batch_overrides.churn ? " +churn" : "") +
            (batch_overrides.topology
                 ? " topo=" + batch_overrides.topology->describe()
                 : "");
        expect_outcome_eq(classic, batch, what + " (classic vs batch)");
        // Single-substrate entries reject a shard count rather than ignore
        // it.
        if (!info.batch_breathe) {
          EXPECT_THROW((void)registry.make(info.name, sharded_overrides),
                       std::invalid_argument)
              << what;
          return;
        }
        const TrialOutcome sharded =
            registry.make(info.name, sharded_overrides)(seed, trial);
        expect_outcome_eq(batch, sharded, what + " (batch vs sharded)");
      });
}

// Invariant 2: run_trials' deterministic summary fields are independent of
// the pool's thread count (trial i always draws from seed stream i).
TEST(PropertyDifferentialTest, TrialSummaryIndependentOfThreadCount) {
  ScenarioOverrides overrides;
  overrides.n = 128;
  const TrialFn fn =
      ScenarioRegistry::instance().make("broadcast_small", overrides);

  ThreadPool serial(1);
  ThreadPool wide(4);
  TrialOptions options;
  options.trials = 12;

  options.pool = &serial;
  const TrialSummary a = run_trials(fn, options);
  options.pool = &wide;
  const TrialSummary b = run_trials(fn, options);

  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.success.estimate, b.success.estimate);
  EXPECT_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_EQ(a.rounds.min(), b.rounds.min());
  EXPECT_EQ(a.rounds.max(), b.rounds.max());
  EXPECT_EQ(a.messages.mean(), b.messages.mean());
  EXPECT_EQ(a.correct_fraction.mean(), b.correct_fraction.mean());
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.convergence_rounds.mean(), b.convergence_rounds.mean());
}

// Invariant 3: every message sent is accounted for exactly once —
// delivered, dropped (collision or asleep recipient), or erased — under
// random schedules and churn. Runs against the engine-backed breathe
// scenarios (the pull/AAE baselines bypass the engine and keep no
// counters; desync adds clock-sync messages outside the route phase).
TEST(PropertyDifferentialTest, MessageConservationUnderRandomEnvironments) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const std::vector<std::string> names = {
      "broadcast",          "broadcast_small",
      "broadcast_churn",    "broadcast_eps_ramp",
      "broadcast_burst",    "majority",
      "majority_churn",     "boost",
      "broadcast_ring_k8",  "broadcast_grid_r2",
      "broadcast_smallworld", "majority_smallworld",
      "broadcast_dynamic_rewire"};
  for (const std::string& name : names) {
    ASSERT_TRUE(registry.contains(name)) << name;
  }
  proptest::check(
      "message_conservation", 120, 0xc0de5, [&](proptest::Gen gen, int) {
        const std::string& name = gen.pick_from(names);
        const ScenarioInfo& info = *registry.find(name);
        const ScenarioOverrides overrides = random_overrides(gen, info);
        const TrialOutcome outcome =
            registry.make(name, overrides)(gen.u64(), gen.index(4));

        const std::string what =
            name + " n=" + std::to_string(*overrides.n) +
            (overrides.schedule ? " +schedule" : "") +
            (overrides.churn ? " +churn" : "") +
            (overrides.topology ? " topo=" + overrides.topology->describe()
                                : "");
        const std::uint64_t accounted =
            outcome.delivered + outcome.dropped + outcome.erased;
        EXPECT_EQ(outcome.messages, static_cast<double>(accounted)) << what;
        // flips happen to *accepted* messages only.
        EXPECT_LE(outcome.flipped, outcome.delivered) << what;
        // These scenarios all run through the engine: a zero-message run
        // would make the conservation check vacuous.
        EXPECT_GT(outcome.messages, 0.0) << what;
      });
}

// Invariant 4 (statistical): holding the protocol's calibration fixed at a
// nominal eps, degrading the ACTUAL channel advantage via a step schedule
// cannot improve the success rate. Fixed seed set, so this is a regression
// test, not a flaky hypothesis test: the slack absorbs neighboring-point
// sampling noise and the endpoints must show the full effect.
TEST(PropertyDifferentialTest, MoreChannelNoiseNeverHelps) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  // Calibrate short phases at eps = 0.4, then deliver less than promised.
  const std::vector<double> actual_eps = {0.4, 0.3, 0.2, 0.1, 0.04};
  std::vector<double> rate;
  for (const double eps : actual_eps) {
    ScenarioOverrides overrides;
    overrides.n = 256;
    overrides.eps = 0.4;
    EnvironmentSchedule schedule;
    schedule.segments.push_back(EpsSegment{0, 0, eps, eps});
    overrides.schedule = schedule;
    const TrialFn fn = registry.make("broadcast", overrides);
    TrialOptions options;
    options.trials = 48;
    options.master_seed = 0x5eed;
    const TrialSummary summary = run_trials(fn, options);
    rate.push_back(static_cast<double>(summary.successes) /
                   static_cast<double>(summary.trials));
  }
  // Calibrated nominal noise: the paper's w.h.p. guarantee should hold.
  EXPECT_GE(rate.front(), 0.9) << "success rate at the calibrated eps";
  for (std::size_t i = 1; i < rate.size(); ++i) {
    EXPECT_LE(rate[i], rate[i - 1] + 0.2)
        << "success rate rose when eps dropped " << actual_eps[i - 1]
        << " -> " << actual_eps[i];
  }
  EXPECT_LE(rate.back(), rate.front())
      << "heaviest noise outperformed the calibrated channel";
}

// Invariant 5: the eight purpose lanes of the counter-keyed RNG never
// collide — across purposes at one (trial, round), across rounds, and
// across trials — in either the derived StreamKey or the first word agents
// actually draw. A collision would mean two unrelated code paths silently
// sharing randomness.
TEST(PropertyDifferentialTest, RngPurposeLanesAreDisjoint) {
  constexpr RngPurpose kPurposes[] = {
      RngPurpose::kRoute,  RngPurpose::kChannel, RngPurpose::kProtocol,
      RngPurpose::kSubset, RngPurpose::kSetup,   RngPurpose::kChurn,
      RngPurpose::kEnvironment, RngPurpose::kTopology};
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  std::set<std::uint64_t> first_words;
  std::size_t streams = 0;
  proptest::check(
      "rng_lane_disjointness", 200, 0xd15c0, [&](proptest::Gen gen, int) {
        const StreamKey trial_key =
            trial_stream_key(gen.u64(), gen.index(1024));
        const std::uint64_t round = gen.index(std::uint64_t{1} << 40);
        const auto agent = static_cast<AgentId>(gen.index(1u << 20));
        for (const RngPurpose purpose : kPurposes) {
          const StreamKey key = round_stream_key(trial_key, purpose, round);
          EXPECT_TRUE(keys.emplace(key.hi, key.lo).second)
              << "StreamKey collision, purpose "
              << static_cast<int>(purpose) << " round " << round;
          CounterRng rng(key, agent);
          EXPECT_TRUE(first_words.insert(rng()).second)
              << "first-word collision, purpose "
              << static_cast<int>(purpose) << " round " << round << " agent "
              << agent;
          ++streams;
        }
      });
  EXPECT_EQ(keys.size(), streams);
  EXPECT_EQ(first_words.size(), streams);
}

// round_stream_key's (purpose, round) packing is injective: purpose lives
// in the low 3 bits next to the shifted round, so two different
// (purpose, round) pairs can never produce the same derivation input.
TEST(PropertyDifferentialTest, RoundStreamKeyPackingIsInjective) {
  const StreamKey trial_key = trial_stream_key(0x5eed, 0);
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  std::size_t expected = 0;
  for (std::uint64_t round = 0; round < 64; ++round) {
    for (std::uint64_t purpose = 0; purpose < 8; ++purpose) {
      const StreamKey key = round_stream_key(
          trial_key, static_cast<RngPurpose>(purpose), round);
      keys.emplace(key.hi, key.lo);
      ++expected;
    }
  }
  EXPECT_EQ(keys.size(), expected);
}

// Invariant 6: the mean-field surrogate stays within its DOCUMENTED error
// band of the exact BatchEngine over random configurations of every
// supported entry — the same contract flipsim --validate-surrogate gates
// in CI, here exercised with random schedules and churn instead of the
// registry presets. The band is the MC Wilson halfwidth (the exact side's
// own sampling noise) plus the static/dynamic model tolerance from
// cli/sweep.hpp; a surrogate recurrence gone wrong misses it by ~0.5, not
// by noise.
TEST(PropertyDifferentialTest, SurrogateStaysWithinErrorBandOfBatch) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  std::vector<const ScenarioInfo*> supported;
  for (const ScenarioInfo* info : registry.list()) {
    if (info->supports_surrogate()) supported.push_back(info);
  }
  ASSERT_FALSE(supported.empty());
  proptest::check(
      "surrogate_error_band", 20, 0xba2d, [&](proptest::Gen gen, int) {
        const ScenarioInfo& info = *gen.pick_from(supported);
        ScenarioOverrides overrides = random_overrides(gen, info);
        overrides.n = gen.range(128, 320);
        // The surrogate models the complete graph only (resolve() rejects
        // anything else); pin the override so both sides run comparable.
        overrides.topology = TopologySpec{};

        overrides.engine = EngineMode::kBatch;
        TrialOptions options;
        options.trials = 32;
        options.master_seed = gen.u64();
        const TrialSummary mc =
            run_trials(registry.make(info.name, overrides), options);

        overrides.engine = EngineMode::kSurrogate;
        TrialOptions sur_options = options;
        sur_options.trials = 2048;  // stratified: quantization < 5e-4
        const TrialSummary sur =
            run_trials(registry.make(info.name, overrides), sur_options);

        const bool dynamic =
            overrides.schedule.has_value() || overrides.churn.has_value();
        const double tolerance = dynamic ? cli::kSurrogateDynamicTolerance
                                         : cli::kSurrogateStaticTolerance;
        const double band =
            0.5 * (mc.success.high - mc.success.low) + tolerance;
        EXPECT_LE(std::abs(sur.success.estimate - mc.success.estimate), band)
            << info.name << " n=" << *overrides.n << " surrogate="
            << sur.success.estimate << " mc=" << mc.success.estimate
            << (dynamic ? " (dynamic band)" : " (static band)");
      });
}

// Invariant 7: surrogate registry coverage is exact — every entry flagged
// supports_surrogate resolves, runs, and produces finite in-range outputs
// under --engine surrogate; every entry NOT flagged is rejected at
// resolve() (the argument layer), never deep in a sweep.
TEST(PropertyDifferentialTest, SurrogateRegistryCoverageIsExact) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  std::size_t supported = 0;
  for (const ScenarioInfo* info : registry.list()) {
    ScenarioOverrides overrides;
    overrides.engine = EngineMode::kSurrogate;
    if (!info->supports_surrogate()) {
      EXPECT_THROW(registry.resolve(info->name, overrides),
                   std::invalid_argument)
          << info->name << " accepted the surrogate engine without a model";
      continue;
    }
    ++supported;
    const TrialFn fn = registry.make(info->name, overrides);
    for (std::size_t trial = 0; trial < 4; ++trial) {
      const TrialOutcome outcome = fn(0x5eed, trial);
      const std::string what = info->name + " trial " +
                               std::to_string(trial);
      EXPECT_TRUE(std::isfinite(outcome.rounds)) << what;
      EXPECT_GT(outcome.rounds, 0.0) << what;
      EXPECT_TRUE(std::isfinite(outcome.messages)) << what;
      EXPECT_GE(outcome.messages, 0.0) << what;
      EXPECT_TRUE(std::isfinite(outcome.correct_fraction)) << what;
      EXPECT_GE(outcome.correct_fraction, 0.0) << what;
      EXPECT_LE(outcome.correct_fraction, 1.0 + 1e-12) << what;
      EXPECT_LE(outcome.flipped, outcome.delivered) << what;
      // convergence_round is either NaN (no probes / never crossed) or a
      // real round inside the budget.
      if (!std::isnan(outcome.convergence_round)) {
        EXPECT_GE(outcome.convergence_round, 0.0) << what;
        EXPECT_LE(outcome.convergence_round, outcome.rounds) << what;
      }
    }
  }
  // The supported family is broadcast/majority/boost — at least the 11
  // entries PR 7 flagged; a regression that quietly unflags one (or flags
  // an unmodelable one) shows up as a count change here.
  EXPECT_GE(supported, 11u);
  EXPECT_LT(supported, registry.list().size())
      << "adversarial/desync/baseline entries must stay unflagged";
}

// rapidcheck-backed duplicates of the invariants above, active only when
// tests/CMakeLists.txt found (or was told to fetch) rapidcheck. They add
// rc's generator shrinking on top of the always-on proptest.hpp coverage —
// a minimal counterexample beats an iteration number when one of these
// does fire.
#if FLIP_HAVE_RAPIDCHECK
RC_GTEST_PROP(PropertyDifferentialRc, SubstrateEquality,
              (std::uint64_t seed)) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const auto n = *::rc::gen::inRange<std::size_t>(64, 257);
  ScenarioOverrides batch_overrides;
  batch_overrides.n = n;
  batch_overrides.engine = EngineMode::kBatch;
  ScenarioOverrides classic_overrides = batch_overrides;
  classic_overrides.engine = EngineMode::kClassic;
  const TrialOutcome batch =
      registry.make("broadcast", batch_overrides)(seed, 0);
  const TrialOutcome classic =
      registry.make("broadcast", classic_overrides)(seed, 0);
  RC_ASSERT(batch.success == classic.success);
  RC_ASSERT(batch.messages == classic.messages);
  RC_ASSERT(batch.delivered == classic.delivered);
  RC_ASSERT(batch.dropped == classic.dropped);
  RC_ASSERT(batch.erased == classic.erased);
  RC_ASSERT(batch.flipped == classic.flipped);
}

RC_GTEST_PROP(PropertyDifferentialRc, MessageConservation,
              (std::uint64_t seed)) {
  ScenarioOverrides overrides;
  overrides.n = *::rc::gen::inRange<std::size_t>(64, 257);
  const TrialOutcome outcome =
      ScenarioRegistry::instance().make("broadcast", overrides)(seed, 0);
  RC_ASSERT(outcome.messages ==
            static_cast<double>(outcome.delivered + outcome.dropped +
                                outcome.erased));
  RC_ASSERT(outcome.flipped <= outcome.delivered);
}
#endif  // FLIP_HAVE_RAPIDCHECK

}  // namespace
}  // namespace flip
