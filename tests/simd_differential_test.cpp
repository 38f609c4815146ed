// Whole-engine SIMD differential suite: with the vector kernels forced on,
// every registry entry must produce TrialOutcomes bit-identical to the
// forced-scalar path — success, rounds, messages, correct_fraction,
// convergence_round, AND the delivered/dropped/erased/flipped counters — at
// shard counts 1 and 8. This is the acceptance test for the FLIP_SIMD
// exactness contract at the outermost observable layer; the block kernels
// themselves are pinned in simd_kernels_test.cpp one layer down.
//
// In FLIP_SIMD=OFF builds (or on machines whose CPU cannot run any
// compiled vector set) the whole suite SKIPs: there is nothing to
// differentiate, and the scalar path is already covered by
// batch_engine_test.cpp.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/trial.hpp"
#include "simd/simd.hpp"
#include "workload/registry.hpp"

namespace flip {
namespace {

/// Restores best-ISA dispatch no matter how a test exits.
struct IsaGuard {
  ~IsaGuard() { simd::reset_isa(); }
};

/// Skips the calling test unless this build + machine has a vector kernel
/// set to differentiate against scalar.
#define FLIP_REQUIRE_VECTOR_KERNELS()                                       \
  do {                                                                      \
    if (!simd::kCompiled) {                                                 \
      GTEST_SKIP() << "FLIP_SIMD=OFF build: no vector kernels compiled";    \
    }                                                                       \
    if (simd::best_isa() == simd::Isa::kScalar) {                           \
      GTEST_SKIP() << "no vector kernel set runnable on this machine";      \
    }                                                                       \
  } while (false)

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

/// Runs `fn(seed, trial)` with the given kernel set forced for the whole
/// call (the dispatch pointer is process-wide; tests are single-threaded).
TrialOutcome run_forced(const TrialFn& fn, simd::Isa isa, std::uint64_t seed,
                        std::size_t trial) {
  EXPECT_TRUE(simd::force_isa(isa)) << simd::isa_name(isa);
  const TrialOutcome out = fn(seed, trial);
  simd::reset_isa();
  return out;
}

// The headline acceptance test: every registry entry, vector vs scalar,
// trials {0,1} x shards {1,8} (shards 1 only on the single-substrate
// entries, which reject a shard count), full outcome + counter equality.
TEST(SimdDifferentialTest, EveryRegistryEntryMatchesScalar) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  const simd::Isa best = simd::best_isa();
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const ScenarioInfo* info : registry.list()) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      if (shards > 1 && !info->supports_shards) continue;
      ScenarioOverrides overrides;
      overrides.n = std::min<std::size_t>(info->default_n, 256);
      overrides.shards = shards;
      const TrialFn fn = registry.make(info->name, overrides);
      for (std::size_t trial = 0; trial < 2; ++trial) {
        const TrialOutcome scalar =
            run_forced(fn, simd::Isa::kScalar, 0x5eed, trial);
        const TrialOutcome vector = run_forced(fn, best, 0x5eed, trial);
        expect_outcome_eq(scalar, vector,
                          info->name + " trial " + std::to_string(trial) +
                              " shards " + std::to_string(shards) + " (" +
                              simd::isa_name(best) + " vs scalar)");
      }
    }
  }
}

// Same contract for EVERY runnable vector set, not just the best one — on
// an AVX-512 machine this also holds the AVX2 kernels (which best-ISA
// dispatch would otherwise never select) to the scalar outcome, on a
// representative subset of entries.
TEST(SimdDifferentialTest, EveryRunnableIsaMatchesScalar) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const simd::Isa isa :
       {simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (!simd::force_isa(isa)) continue;
    simd::reset_isa();
    for (const char* name :
         {"broadcast", "broadcast_churn", "broadcast_eps_ramp", "majority",
          "desync"}) {
      ASSERT_TRUE(registry.contains(name)) << name;
      const ScenarioInfo* info = registry.find(name);
      ScenarioOverrides overrides;
      overrides.n = std::min<std::size_t>(info->default_n, 256);
      const TrialFn fn = registry.make(name, overrides);
      const TrialOutcome scalar =
          run_forced(fn, simd::Isa::kScalar, 0x5eed, 0);
      const TrialOutcome vector = run_forced(fn, isa, 0x5eed, 0);
      expect_outcome_eq(scalar, vector,
                        std::string(name) + " (" + simd::isa_name(isa) +
                            " vs scalar)");
    }
  }
}

// Sparse-topology entries route through GraphRecipient, for which no vector
// kernel exists: the engine must fall back to the scalar route (deliver
// still vectorizes — it is topology-blind), so forcing the best vector set
// and forcing scalar MUST agree bit-for-bit. This pins the use_simd gate in
// route_dispatch: a kernel-set that silently kept the complete-graph
// draw-bound on a sparse graph would diverge here immediately.
TEST(SimdDifferentialTest, SparseTopologyEntriesMatchScalar) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"broadcast_ring_k8", "broadcast_grid_r2", "broadcast_smallworld",
        "majority_smallworld", "broadcast_dynamic_rewire"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      ScenarioOverrides overrides;
      overrides.n = 256;
      overrides.shards = shards;
      const TrialFn fn = registry.make(name, overrides);
      for (std::size_t trial = 0; trial < 2; ++trial) {
        const TrialOutcome scalar =
            run_forced(fn, simd::Isa::kScalar, 0x5eed, trial);
        const TrialOutcome vector =
            run_forced(fn, simd::best_isa(), 0x5eed, trial);
        expect_outcome_eq(scalar, vector,
                          std::string(name) + " trial " +
                              std::to_string(trial) + " shards " +
                              std::to_string(shards));
      }
    }
  }
}

// A population large enough that every round runs many full vector blocks
// plus a ragged tail through both hot phases (route + stage-2 deliver with
// the BSC integer threshold) — small-n registry runs keep blocks short, so
// this is the case that exercises steady-state block iteration.
TEST(SimdDifferentialTest, LargeBroadcastMatchesScalar) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  ScenarioOverrides overrides;
  overrides.n = 20000;
  const TrialFn fn = ScenarioRegistry::instance().make("broadcast", overrides);
  const TrialOutcome scalar = run_forced(fn, simd::Isa::kScalar, 0x5eed, 0);
  const TrialOutcome vector = run_forced(fn, simd::best_isa(), 0x5eed, 0);
  expect_outcome_eq(scalar, vector, "broadcast n=20000");
}

// Dynamic-environment coverage at size: churn exercises the awake-filter
// pre-pass in front of the route kernel (live-entry compaction must keep
// the exact scalar draw-skipping semantics), and a schedule ramp exercises
// per-round threshold changes through the flip kernel.
TEST(SimdDifferentialTest, ChurnAndScheduleMatchScalarAtSize) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"broadcast_churn", "broadcast_eps_ramp", "broadcast_burst"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    ScenarioOverrides overrides;
    overrides.n = 4096;
    overrides.shards = 4;
    const TrialFn fn = registry.make(name, overrides);
    for (std::size_t trial = 0; trial < 2; ++trial) {
      const TrialOutcome scalar =
          run_forced(fn, simd::Isa::kScalar, 0x5eed, trial);
      const TrialOutcome vector =
          run_forced(fn, simd::best_isa(), 0x5eed, trial);
      expect_outcome_eq(scalar, vector,
                        std::string(name) + " trial " +
                            std::to_string(trial));
    }
  }
}

// run_trials aggregation on top of the forced kernels: the deterministic
// summary fields (not wall-clock) must match scalar exactly, so a user
// flipping FLIP_SIMD on sees identical science in every report.
TEST(SimdDifferentialTest, TrialSummaryMatchesScalar) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  ScenarioOverrides overrides;
  overrides.n = 256;
  const TrialFn fn = ScenarioRegistry::instance().make("broadcast", overrides);
  TrialOptions options;
  options.trials = 8;

  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  const TrialSummary scalar = run_trials(fn, options);
  ASSERT_TRUE(simd::force_isa(simd::best_isa()));
  const TrialSummary vector = run_trials(fn, options);
  simd::reset_isa();

  EXPECT_EQ(scalar.trials, vector.trials);
  EXPECT_EQ(scalar.successes, vector.successes);
  EXPECT_EQ(scalar.success.estimate, vector.success.estimate);
  EXPECT_EQ(scalar.rounds.mean(), vector.rounds.mean());
  EXPECT_EQ(scalar.messages.mean(), vector.messages.mean());
  EXPECT_EQ(scalar.correct_fraction.mean(), vector.correct_fraction.mean());
  EXPECT_EQ(scalar.converged, vector.converged);
  EXPECT_EQ(scalar.convergence_rounds.mean(), vector.convergence_rounds.mean());
}

// The heterogeneous channel has per-recipient (data-dependent) flip
// probabilities, so its deliver phase stays scalar by design
// (kIntegerThreshold == false) while the route phase still runs through the
// vector kernel — the mixed configuration must stay exact too.
TEST(SimdDifferentialTest, HeterogeneousChannelMatchesScalar) {
  FLIP_REQUIRE_VECTOR_KERNELS();
  IsaGuard guard;
  ScenarioOverrides overrides;
  overrides.n = 1024;
  overrides.channel = std::string(kChannelHeterogeneous);
  const TrialFn fn = ScenarioRegistry::instance().make("broadcast", overrides);
  for (std::size_t trial = 0; trial < 2; ++trial) {
    const TrialOutcome scalar =
        run_forced(fn, simd::Isa::kScalar, 0x5eed, trial);
    const TrialOutcome vector = run_forced(fn, simd::best_isa(), 0x5eed, trial);
    expect_outcome_eq(scalar, vector,
                      "heterogeneous trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace flip
