#include "workload/scenarios.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "net/channel.hpp"
#include "sim/batch_engine.hpp"
#include "sim/engine.hpp"
#include "sim/series.hpp"
#include "sim/surrogate_engine.hpp"
#include "sim/trial_arena.hpp"

namespace flip {

namespace {

/// Per-agent setup stream (RngPurpose::kSetup, round 0): scenario
/// initialization draws that are logically per-agent — like desync wake
/// offsets — come from here, so setup is order-independent like the engine
/// draws. Rounds 1.. of the lane route the clock-sync pre-phase.
CounterRng agent_setup_rng(const StreamKey& key, AgentId agent) {
  return CounterRng(round_stream_key(key, RngPurpose::kSetup, 0), agent);
}

/// The pool the sharded breathe phases run on: the process-wide shared
/// pool (whose workers persist, so their scratch recycles across trials),
/// or none when the trial is unsharded.
ThreadPool* shard_pool(std::size_t shards) {
  return shards > 1 ? &ThreadPool::shared() : nullptr;
}

// Scenario -> SurrogateSpec derivations for EngineMode::kSurrogate. These
// deliberately bypass the BreatheConfig builders: majority_config
// materializes an O(n) seed vector, which at the surrogate's n = 1e9 would
// cost more memory than the whole analysis — the spec carries counts only.

/// The mean-field rate equations assume every sender reaches every
/// recipient with probability 1/(n-1): a sparse interaction graph has no
/// homogeneous per-round rate, so the surrogate refuses it rather than
/// silently integrating the wrong dynamics.
void reject_sparse_topology(const TopologySpec& topology, const char* what) {
  if (!topology.complete()) {
    throw std::invalid_argument(
        std::string(what) + ": the mean-field surrogate engine models the "
        "complete interaction graph only, not topology '" +
        topology.describe() + "'; use --engine batch or --engine classic");
  }
}

SurrogateSpec broadcast_surrogate_spec(const BroadcastScenario& scenario) {
  if (scenario.adversarial_budget != 0) {
    throw std::invalid_argument(
        "broadcast: the adversarial channel is stateful and order-"
        "dependent — no per-round rate exists for the surrogate engine; "
        "use --engine batch or --engine classic");
  }
  reject_sparse_topology(scenario.topology, "broadcast");
  SurrogateSpec spec;
  spec.n = scenario.n;
  spec.eps = scenario.eps;
  spec.tuning = scenario.tuning;
  spec.initial_set = 1;
  spec.initial_correct = 1;
  spec.stage1_only = scenario.stage1_only;
  spec.heterogeneous = scenario.heterogeneous_noise;
  spec.schedule = scenario.schedule;
  spec.churn = scenario.churn;
  spec.probe_every = scenario.probe_every;
  // stage1_pick / stage2_subset need no mapping: uniform-vs-first message
  // and uniform-vs-prefix subset have identical per-agent marginals, so
  // the mean-field state evolution is the same for all four combinations.
  return spec;
}

SurrogateSpec majority_surrogate_spec(const MajorityScenario& scenario) {
  if (!(scenario.majority_bias > 0.0) || scenario.majority_bias > 0.5) {
    throw std::invalid_argument("run_majority: majority_bias not in (0, 0.5]");
  }
  reject_sparse_topology(scenario.topology, "majority");
  SurrogateSpec spec;
  spec.n = scenario.n;
  spec.eps = scenario.eps;
  spec.tuning = scenario.tuning;
  spec.initial_set = scenario.initial_set;
  spec.initial_correct = static_cast<std::size_t>(
      std::llround((0.5 + scenario.majority_bias) *
                   static_cast<double>(scenario.initial_set)));
  spec.auto_join_phase = true;
  spec.schedule = scenario.schedule;
  spec.churn = scenario.churn;
  spec.probe_every = scenario.probe_every;
  return spec;
}

SurrogateSpec boost_surrogate_spec(const BoostScenario& scenario) {
  if (!(scenario.initial_bias > 0.0) || scenario.initial_bias > 0.5) {
    throw std::invalid_argument("run_boost: initial_bias not in (0, 0.5]");
  }
  reject_sparse_topology(scenario.topology, "boost");
  SurrogateSpec spec;
  spec.n = scenario.n;
  spec.eps = scenario.eps;
  spec.tuning = scenario.tuning;
  spec.initial_set = scenario.n;
  spec.initial_correct = static_cast<std::size_t>(std::llround(
      (0.5 + scenario.initial_bias) * static_cast<double>(scenario.n)));
  spec.skip_stage1 = true;
  return spec;
}

/// The convergence-round probe statistic: first stable crossing of 99%
/// activation in the recorded series. NaN when no probes were recorded or
/// the crossing never happens — reporting maps non-finite to null/"-".
double activation_convergence(const Metrics& metrics, std::size_t n) {
  const std::optional<Round> round =
      stable_crossing(metrics.activated_series,
                      0.99 * static_cast<double>(n));
  return round ? static_cast<double>(*round) : kNoConvergence;
}

/// The environment one breathe execution runs in: at most one of
/// heterogeneous / schedule / adversarial selects the channel; churn is
/// orthogonal.
struct BreatheEnvironment {
  bool heterogeneous = false;
  EnvironmentSchedule schedule{};
  ChurnSpec churn{};
  /// Interaction graph; orthogonal to the channel choice, like churn.
  TopologySpec topology{};
  std::uint64_t adversarial_budget = 0;
};

/// Everything a breathe scenario fixes before its first trial: the
/// calibrated schedule, the protocol config (whose initial seed list is
/// O(n) for boost), the environment, and the execution knobs. The run_*
/// functions build one per call; the *_trial_fn adapters build one per
/// cell and share it read-only across the harness's worker threads.
struct BreatheCell {
  Params params;
  BreatheConfig config;
  double eps = 0.0;
  BreatheEnvironment env{};
  EngineMode engine = EngineMode::kBatch;
  std::size_t shards = 1;
  /// Truncates the budget to Stage I; success then means "every agent
  /// activated".
  bool stage1_only = false;
  Round probe_every = 0;
};

// Scenario -> BreatheCell derivations. A bad bias is rejected before
// Params::calibrated checks (n, eps).

BreatheCell broadcast_cell(const BroadcastScenario& scenario) {
  BreatheCell cell{
      Params::calibrated(scenario.n, scenario.eps, scenario.tuning),
      broadcast_config(scenario.correct)};
  cell.config.stage1_pick = scenario.stage1_pick;
  cell.config.stage2_subset = scenario.stage2_subset;
  cell.eps = scenario.eps;
  cell.env.heterogeneous = scenario.heterogeneous_noise;
  cell.env.schedule = scenario.schedule;
  cell.env.churn = scenario.churn;
  cell.env.topology = scenario.topology;
  cell.env.adversarial_budget = scenario.adversarial_budget;
  cell.engine = scenario.engine;
  cell.shards = scenario.shards;
  cell.stage1_only = scenario.stage1_only;
  cell.probe_every = scenario.probe_every;
  if (cell.env.heterogeneous && cell.env.schedule.enabled()) {
    throw std::invalid_argument(
        "breathe scenario: heterogeneous noise and an eps schedule are "
        "mutually exclusive");
  }
  if (cell.env.adversarial_budget != 0 &&
      (cell.env.heterogeneous || cell.env.schedule.enabled())) {
    throw std::invalid_argument(
        "breathe scenario: the adversarial channel excludes heterogeneous "
        "noise and eps schedules");
  }
  return cell;
}

BreatheCell majority_cell(const MajorityScenario& scenario) {
  if (!(scenario.majority_bias > 0.0) || scenario.majority_bias > 0.5) {
    throw std::invalid_argument("run_majority: majority_bias not in (0, 0.5]");
  }
  const Params params =
      Params::calibrated(scenario.n, scenario.eps, scenario.tuning);
  // majority-bias = (A_B - A_notB) / (2|A|)  =>  A_B = |A| (1/2 + bias).
  const auto correct_count = static_cast<std::size_t>(
      std::llround((0.5 + scenario.majority_bias) *
                   static_cast<double>(scenario.initial_set)));
  BreatheCell cell{params, majority_config(params, scenario.initial_set,
                                           correct_count, scenario.correct)};
  cell.eps = scenario.eps;
  cell.env.schedule = scenario.schedule;
  cell.env.churn = scenario.churn;
  cell.env.topology = scenario.topology;
  cell.engine = scenario.engine;
  cell.shards = scenario.shards;
  cell.probe_every = scenario.probe_every;
  return cell;
}

BreatheCell boost_cell(const BoostScenario& scenario) {
  if (!(scenario.initial_bias > 0.0) || scenario.initial_bias > 0.5) {
    throw std::invalid_argument("run_boost: initial_bias not in (0, 0.5]");
  }
  const Params params =
      Params::calibrated(scenario.n, scenario.eps, scenario.tuning);
  const auto correct_count = static_cast<std::size_t>(
      std::llround((0.5 + scenario.initial_bias) *
                   static_cast<double>(scenario.n)));
  BreatheCell cell{params, majority_config(params, scenario.n, correct_count,
                                           scenario.correct)};
  cell.config.skip_stage1 = true;
  cell.eps = scenario.eps;
  cell.env.topology = scenario.topology;
  cell.engine = scenario.engine;
  cell.shards = scenario.shards;
  return cell;
}

/// One breathe execution — the single substrate dispatch behind every
/// run_broadcast / run_majority / run_boost call and every breathe trial
/// fn. Builds the channel `cell.env` selects, runs it on the batch fast
/// path unless the engine is classic, the channel is adversarial, or the
/// schedule cannot be packed (breathe_fast_supported), and otherwise on
/// the oracle Engine + BreatheProtocol. Either way it fills the leased
/// arena's result; both substrates draw from the same keys, so the result
/// is the same bits.
const BreatheFastResult& run_breathe_trial(const BreatheCell& cell,
                                           std::uint64_t seed,
                                           std::size_t trial,
                                           TrialArena& arena) {
  const StreamKey key = trial_stream_key(seed, trial);
  BreatheRunOptions options;
  options.engine.probe_every = cell.probe_every;
  options.engine.churn = cell.env.churn;
  options.engine.topology = cell.env.topology;
  options.shards = cell.shards;
  options.pool = shard_pool(cell.shards);
  const Round budget =
      breathe_schedule(cell.params, cell.config.start_phase,
                       cell.config.skip_stage1, cell.stage1_only)
          .budget;
  BreatheFastResult& result = arena.result;

  const auto run = [&](auto& channel) {
    // The adversarial channel has no packed flip functor: it spends its
    // budget in delivery order, so only the sequential oracle gives it a
    // defined meaning (and batch == classic trivially).
    if constexpr (requires { detail::make_flip(channel); }) {
      if (cell.engine == EngineMode::kBatch &&
          breathe_fast_supported(cell.params)) {
        arena.engine.run_breathe(cell.params, cell.config, channel, key,
                                 cell.stage1_only, options, result);
        return;
      }
    }
    Engine engine(cell.params.n(), channel, key, options.engine);
    BreatheProtocol protocol(cell.params, cell.config, key);
    result.reset();
    result.protocol_rounds = budget;
    result.metrics = engine.run(protocol, budget);
    result.success = protocol.succeeded();
    result.opinionated = protocol.population().opinionated();
    result.correct_fraction =
        protocol.population().correct_fraction(cell.config.correct);
    result.final_bias = protocol.population().bias(cell.config.correct);
    result.stage1 = protocol.stage1_stats();
    result.stage2 = protocol.stage2_stats();
  };
  if (cell.env.adversarial_budget != 0) {
    AdversarialChannel channel(cell.env.adversarial_budget);
    run(channel);
  } else if (cell.env.schedule.enabled()) {
    // Anchor open-ended schedule segments ("ramp over the whole run") to
    // the rounds this execution will actually run.
    CorrelatedBurstChannel channel(
        cell.env.schedule.resolved(cell.eps, budget));
    run(channel);
  } else if (cell.env.heterogeneous) {
    HeterogeneousChannel channel(cell.eps);
    run(channel);
  } else {
    BinarySymmetricChannel channel(cell.eps);
    run(channel);
  }

  if (cell.stage1_only) {
    // Stage-I-only success = every agent activated, counted from the
    // Stage I stats (identical on both substrates).
    const std::uint64_t activated =
        result.stage1.empty() ? 0 : result.stage1.back().total_activated;
    result.success = activated == cell.params.n();
  }
  return result;
}

/// The RunDetail of one breathe execution (the public run_* functions).
RunDetail breathe_detail(const BreatheCell& cell, std::uint64_t seed,
                         std::size_t trial) {
  if (cell.engine == EngineMode::kSurrogate) {
    // The surrogate yields analytic moments, not one execution's samples:
    // there is no RunDetail to return. The *_trial_fn adapters intercept
    // kSurrogate before a cell is built.
    throw std::invalid_argument(
        "breathe scenario: the surrogate engine has no per-execution "
        "RunDetail; use the trial-fn adapters");
  }
  TrialArenaLease arena;
  const BreatheFastResult& result =
      run_breathe_trial(cell, seed, trial, *arena);
  RunDetail detail;
  detail.metrics = result.metrics;
  detail.success = result.success;
  detail.correct_fraction = result.correct_fraction;
  detail.final_bias = result.final_bias;
  detail.protocol_rounds = result.protocol_rounds;
  detail.stage1 = result.stage1;
  detail.stage2 = result.stage2;
  detail.convergence_round =
      activation_convergence(result.metrics, cell.params.n());
  return detail;
}

/// The TrialOutcome of one breathe execution (the Monte-Carlo path). Only
/// scalars leave the arena, so after one warm-up trial per cell shape a
/// batch trial with a static channel and inline shard phases allocates
/// nothing (tests/trial_arena_test.cpp); CorrelatedBurstChannel still
/// materializes its resolved schedule per trial.
TrialOutcome breathe_outcome(const BreatheCell& cell, std::uint64_t seed,
                             std::size_t trial) {
  TrialArenaLease arena;
  const BreatheFastResult& result =
      run_breathe_trial(cell, seed, trial, *arena);
  TrialOutcome outcome = metrics_outcome(result.metrics);
  outcome.success = result.success;
  outcome.correct_fraction = result.correct_fraction;
  outcome.convergence_round =
      activation_convergence(result.metrics, cell.params.n());
  return outcome;
}

/// The Monte-Carlo adapter over one prepared cell: everything that depends
/// only on the scenario is hoisted out of the per-trial closure.
TrialFn breathe_trial_fn(BreatheCell cell) {
  return [cell = std::move(cell)](std::uint64_t seed, std::size_t trial) {
    return breathe_outcome(cell, seed, trial);
  };
}

}  // namespace

TrialOutcome metrics_outcome(const Metrics& metrics) {
  TrialOutcome outcome;
  outcome.rounds = static_cast<double>(metrics.rounds);
  outcome.messages = static_cast<double>(metrics.messages_sent);
  outcome.delivered = metrics.delivered;
  outcome.dropped = metrics.dropped;
  outcome.erased = metrics.erased;
  outcome.flipped = metrics.flipped;
  return outcome;
}

TrialOutcome to_outcome(const RunDetail& detail) {
  TrialOutcome outcome = metrics_outcome(detail.metrics);
  outcome.success = detail.success;
  outcome.correct_fraction = detail.correct_fraction;
  outcome.convergence_round = detail.convergence_round;
  return outcome;
}

RunDetail run_broadcast(const BroadcastScenario& scenario, std::uint64_t seed,
                        std::size_t trial) {
  return breathe_detail(broadcast_cell(scenario), seed, trial);
}

RunDetail run_majority(const MajorityScenario& scenario, std::uint64_t seed,
                       std::size_t trial) {
  return breathe_detail(majority_cell(scenario), seed, trial);
}

RunDetail run_boost(const BoostScenario& scenario, std::uint64_t seed,
                    std::size_t trial) {
  return breathe_detail(boost_cell(scenario), seed, trial);
}

RunDetail run_desync(const DesyncScenario& scenario, std::uint64_t seed,
                     std::size_t trial) {
  const Params params = Params::calibrated(scenario.n, scenario.eps,
                                           scenario.tuning);
  const StreamKey key = trial_stream_key(seed, trial);

  RunDetail detail;
  DesyncConfig config;
  config.base = broadcast_config(scenario.correct);
  config.attribution = scenario.attribution;

  if (scenario.use_clock_sync) {
    // Section 3.2: run the activation pre-phase; its clock resets bound the
    // skew by ~2 log n w.h.p.
    const ClockSyncResult sync = run_clock_sync(scenario.n, /*source=*/0, key);
    detail.clock_sync_rounds = sync.duration;
    detail.clock_sync_messages = sync.messages;
    detail.measured_skew = sync.skew;
    config.wake = sync.wake;
    config.max_skew = sync.skew;  // the realized bound
  } else {
    config.max_skew = scenario.max_skew;
    const Round spread = scenario.actual_skew != 0 ? scenario.actual_skew
                                                   : scenario.max_skew;
    config.allow_excess_skew = spread > scenario.max_skew;
    config.wake.resize(scenario.n, 0);
    if (spread > 0) {
      for (AgentId a = 0; a < scenario.n; ++a) {
        CounterRng rng = agent_setup_rng(key, a);
        config.wake[a] = uniform_index(rng, spread + 1);
      }
      detail.measured_skew = spread;
    }
  }

  DesyncBreatheProtocol protocol(params, std::move(config), key);

  detail.protocol_rounds = protocol.total_rounds();
  detail.desync_overhead = protocol.desync_overhead();
  std::unique_ptr<NoiseChannel> channel;
  if (scenario.schedule.enabled()) {
    channel = std::make_unique<CorrelatedBurstChannel>(
        scenario.schedule.resolved(scenario.eps, protocol.total_rounds()));
  } else {
    channel = std::make_unique<BinarySymmetricChannel>(scenario.eps);
  }
  Engine engine(scenario.n, *channel, key);
  detail.metrics = engine.run(protocol, protocol.total_rounds());
  detail.metrics.rounds += detail.clock_sync_rounds;
  detail.metrics.messages_sent += detail.clock_sync_messages;
  detail.success = protocol.succeeded();
  detail.correct_fraction =
      protocol.population().correct_fraction(scenario.correct);
  detail.final_bias = protocol.population().bias(scenario.correct);
  return detail;
}

TrialFn broadcast_trial_fn(BroadcastScenario scenario) {
  if (scenario.engine == EngineMode::kSurrogate) {
    return surrogate_trial_fn(broadcast_surrogate_spec(scenario));
  }
  return breathe_trial_fn(broadcast_cell(scenario));
}

TrialFn majority_trial_fn(MajorityScenario scenario) {
  if (scenario.engine == EngineMode::kSurrogate) {
    return surrogate_trial_fn(majority_surrogate_spec(scenario));
  }
  return breathe_trial_fn(majority_cell(scenario));
}

TrialFn boost_trial_fn(BoostScenario scenario) {
  if (scenario.engine == EngineMode::kSurrogate) {
    return surrogate_trial_fn(boost_surrogate_spec(scenario));
  }
  return breathe_trial_fn(boost_cell(scenario));
}

TrialFn desync_trial_fn(DesyncScenario scenario) {
  return [scenario](std::uint64_t seed, std::size_t trial) {
    return to_outcome(run_desync(scenario, seed, trial));
  };
}

}  // namespace flip
