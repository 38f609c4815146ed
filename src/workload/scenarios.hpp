#pragma once
// Ready-made experiment scenarios: each couples a Params schedule, a
// protocol, a channel, and deterministic per-trial rng streams into a
// single call. Tests, benches and examples all run the paper's experiments
// through these, so workloads are identical everywhere.
//
// The breathe scenarios (broadcast / majority / boost) dispatch on their
// `engine` field: kBatch runs the sharded SoA BatchEngine, kClassic the
// reference Engine + BreatheProtocol. Both substrates draw from the same
// counter-keyed per-agent streams (util/rng.hpp), so for the same
// (seed, trial) they return bit-identical RunDetails — for every `shards`
// value. tests/batch_engine_test.cpp enforces this. Desync has no SoA
// specialization and always runs on the reference Engine.

#include <cstdint>
#include <limits>

#include "core/breathe.hpp"
#include "core/desync.hpp"
#include "core/environment.hpp"
#include "core/params.hpp"
#include "core/topology.hpp"
#include "sim/metrics.hpp"
#include "sim/trial.hpp"

namespace flip {

/// Noisy broadcast (Section 2): one source, n-1 uninformed agents.
struct BroadcastScenario {
  std::size_t n = 1024;
  double eps = 0.2;
  Tuning tuning{};
  Opinion correct = Opinion::kOne;
  /// Engine probe period for bias/activation time series (0 = off).
  Round probe_every = 0;
  /// Run Stage I only (benches E4/E5 study the spreading stage in
  /// isolation). "success" then means "all agents activated".
  bool stage1_only = false;
  /// Rule variants of Remarks 2.1 / 2.10 (bench E11 measures equivalence).
  Stage1Pick stage1_pick = Stage1Pick::kUniformMessage;
  Stage2Subset stage2_subset = Stage2Subset::kUniformSubset;
  /// Replace the BSC with the "at most 1/2 - eps" heterogeneous channel
  /// (Section 1.3.2's exact wording; the guarantee must survive).
  bool heterogeneous_noise = false;
  /// Simulation substrate. kBatch (the default) runs the SoA fast path of
  /// sim/batch_engine.hpp; kClassic forces the reference Engine +
  /// BreatheProtocol. Results are identical per (seed, trial).
  EngineMode engine = EngineMode::kBatch;
  /// Intra-trial shard count for the batch substrate (1 = unsharded).
  /// Results are bit-identical for every value; >1 splits each round's
  /// route/deliver work across ThreadPool::current(), the trial's pool.
  std::size_t shards = 1;
  /// Dynamic environment (core/environment.hpp): a per-round eps schedule
  /// (runs through CorrelatedBurstChannel; mutually exclusive with
  /// heterogeneous_noise) and per-round agent join/sleep/wake churn. Both
  /// default to the paper's static environment.
  EnvironmentSchedule schedule{};
  ChurnSpec churn{};
  /// Interaction graph (core/topology.hpp): complete by default — the
  /// paper's uniform push. Sparse families restrict each sender's
  /// recipient draw to its neighbor set, resolved against n when the run
  /// starts. The surrogate engine models the complete graph only and
  /// rejects everything else.
  TopologySpec topology{};
  /// Ablation vs the stochastic schedules: > 0 replaces the channel with a
  /// budget-bounded AdversarialChannel (deterministic early flips). The
  /// adversary is stateful/order-dependent, so these runs always use the
  /// reference Engine; mutually exclusive with schedule/heterogeneous.
  std::uint64_t adversarial_budget = 0;
};

/// Noisy majority-consensus (Corollary 2.18): |A| = initial_set agents with
/// the given majority-bias in (0, 1/2]; B is the majority opinion.
struct MajorityScenario {
  std::size_t n = 1024;
  double eps = 0.2;
  std::size_t initial_set = 64;
  double majority_bias = 0.25;
  Tuning tuning{};
  Opinion correct = Opinion::kOne;
  EngineMode engine = EngineMode::kBatch;
  std::size_t shards = 1;
  /// Engine probe period for bias/activation time series (0 = off); feeds
  /// the convergence-round report like BroadcastScenario::probe_every.
  Round probe_every = 0;
  /// Dynamic environment, as in BroadcastScenario.
  EnvironmentSchedule schedule{};
  ChurnSpec churn{};
  /// Interaction graph, as in BroadcastScenario.
  TopologySpec topology{};
};

/// Stage II in isolation (Lemma 2.14 / bench E7): the whole population is
/// opinionated with the given bias toward `correct`; Stage I is skipped.
struct BoostScenario {
  std::size_t n = 4096;
  double eps = 0.25;
  double initial_bias = 0.02;  ///< delta_1 in (0, 0.5]
  Tuning tuning{};
  Opinion correct = Opinion::kOne;
  EngineMode engine = EngineMode::kBatch;
  std::size_t shards = 1;
  /// Interaction graph, as in BroadcastScenario.
  TopologySpec topology{};
};

/// Section 3 broadcast without a global clock.
struct DesyncScenario {
  std::size_t n = 1024;
  double eps = 0.2;
  /// Clock skew bound D. Offsets are drawn uniformly from [0, D] unless
  /// use_clock_sync is set (then Section 3.2's pre-phase produces them and
  /// D is its 2-log-n bound).
  Round max_skew = 0;
  bool use_clock_sync = false;
  /// E15: true wake spread, possibly exceeding the declared max_skew the
  /// schedule was built for (0 = equal to max_skew). Probes how much slack
  /// the protocol really needs — the paper's Section 4 open question.
  Round actual_skew = 0;
  Attribution attribution = Attribution::kLocalWindow;
  Tuning tuning{};
  Opinion correct = Opinion::kOne;
  /// Per-round eps schedule (desync_burst); static when disabled. Churn is
  /// deliberately NOT offered here — the desync protocol has its own wake
  /// semantics, and overlapping the two would conflate the measurements.
  EnvironmentSchedule schedule{};
};

/// The NaN sentinel for "no convergence measured". Reporting layers map it
/// to null (JSON) / "-" (tables), the same way non-finite doubles render
/// everywhere else.
inline constexpr double kNoConvergence =
    std::numeric_limits<double>::quiet_NaN();

/// Everything one execution yields; TrialOutcome is derived from this.
struct RunDetail {
  Metrics metrics;
  bool success = false;
  double correct_fraction = 0.0;
  double final_bias = 0.0;
  Round protocol_rounds = 0;  ///< scheduled length of the protocol
  std::vector<StageOnePhaseStats> stage1;
  std::vector<StageTwoPhaseStats> stage2;
  /// Desync only: rounds added relative to the synchronous schedule, and
  /// the pre-phase cost when use_clock_sync is set.
  Round desync_overhead = 0;
  Round clock_sync_rounds = 0;
  std::uint64_t clock_sync_messages = 0;
  Round measured_skew = 0;
  /// First probe round at which >= 99% of agents hold an opinion, and do
  /// so stably (sim/series.hpp stable_crossing over the activated probe
  /// series). NaN when the run records no probes or never converges.
  double convergence_round = kNoConvergence;
};

/// The TrialOutcome fields an execution's Metrics determine — rounds,
/// messages and the four engine counters — with success, correct_fraction
/// and convergence_round left at their defaults for the caller to fill.
/// Every Metrics-backed outcome (to_outcome, the breathe trial fns, the
/// Engine-based baselines) starts from this one copy.
[[nodiscard]] TrialOutcome metrics_outcome(const Metrics& metrics);

[[nodiscard]] TrialOutcome to_outcome(const RunDetail& detail);

/// Runs one broadcast execution with rng streams derived from
/// (seed, trial), on the substrate `scenario.engine` selects.
/// Deterministic: same inputs, same result — independent of the substrate,
/// the shard count, and the calling thread.
RunDetail run_broadcast(const BroadcastScenario& scenario, std::uint64_t seed,
                        std::size_t trial);

RunDetail run_majority(const MajorityScenario& scenario, std::uint64_t seed,
                       std::size_t trial);

RunDetail run_boost(const BoostScenario& scenario, std::uint64_t seed,
                    std::size_t trial);

RunDetail run_desync(const DesyncScenario& scenario, std::uint64_t seed,
                     std::size_t trial);

/// TrialFn adapters for the Monte-Carlo harness.
TrialFn broadcast_trial_fn(BroadcastScenario scenario);
TrialFn majority_trial_fn(MajorityScenario scenario);
TrialFn boost_trial_fn(BoostScenario scenario);
TrialFn desync_trial_fn(DesyncScenario scenario);

}  // namespace flip
