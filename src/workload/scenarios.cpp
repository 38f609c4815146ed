#include "workload/scenarios.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

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

/// The pool the sharded breathe phases run on: the one whose call runs the
/// trial (shared() outside any call), so a sweep's --threads bounds its
/// shard phases too; or none when the trial is unsharded.
ThreadPool* shard_pool(std::size_t shards) {
  return shards > 1 ? &ThreadPool::current() : nullptr;
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

/// One breathe run for every engine. Broadcast, majority (Corollary 2.18)
/// and boost (Lemma 2.14) differ only in the initial set A and where they
/// join, so `spec` states each in counts: all the surrogate reads, with no
/// O(n) state at its n = 1e9. The other fields only the exact engines read.
struct BreatheCell {
  const char* problem = "";  ///< named by the surrogate's rejections
  SurrogateSpec spec;
  Opinion correct = Opinion::kOne;
  /// Remarks 2.1 / 2.10. The surrogate needs neither: both variants have
  /// the same per-agent marginals, so the same mean-field evolution.
  Stage1Pick stage1_pick = Stage1Pick::kUniformMessage;
  Stage2Subset stage2_subset = Stage2Subset::kUniformSubset;
  /// Interaction graph; orthogonal to the channel choice, like churn.
  TopologySpec topology{};
  std::uint64_t adversarial_budget = 0;
  EngineMode engine = EngineMode::kBatch;
  std::size_t shards = 1;
};

/// The fields every breathe scenario shares. Each joins Stage I at
/// join_phase_for_initial_set(|A|): 0 for a lone source; skip_stage1
/// ignores it.
template <typename Scenario>
BreatheCell breathe_cell(const char* problem, const Scenario& scenario,
                         std::size_t initial_set,
                         std::size_t initial_correct) {
  BreatheCell cell;
  cell.problem = problem;
  cell.spec.n = scenario.n;
  cell.spec.eps = scenario.eps;
  cell.spec.tuning = scenario.tuning;
  cell.spec.initial_set = initial_set;
  cell.spec.initial_correct = initial_correct;
  cell.spec.auto_join_phase = true;
  cell.correct = scenario.correct;
  cell.topology = scenario.topology;
  cell.engine = scenario.engine;
  cell.shards = scenario.shards;
  return cell;
}

/// majority-bias = (A_B - A_notB) / (2|A|)  =>  A_B = |A| (1/2 + bias). A
/// bias outside (0, 1/2] throws, naming `what`, before (n, eps) is checked.
std::size_t correct_count(double bias, std::size_t size, const char* what) {
  if (!(bias > 0.0) || bias > 0.5) {
    throw std::invalid_argument(std::string(what) + " not in (0, 0.5]");
  }
  return static_cast<std::size_t>(
      std::llround((0.5 + bias) * static_cast<double>(size)));
}

BreatheCell scenario_cell(const BroadcastScenario& scenario) {
  BreatheCell cell = breathe_cell("broadcast", scenario, 1, 1);
  cell.spec.stage1_only = scenario.stage1_only;
  cell.spec.heterogeneous = scenario.heterogeneous_noise;
  cell.spec.schedule = scenario.schedule;
  cell.spec.churn = scenario.churn;
  cell.spec.probe_every = scenario.probe_every;
  cell.stage1_pick = scenario.stage1_pick;
  cell.stage2_subset = scenario.stage2_subset;
  cell.adversarial_budget = scenario.adversarial_budget;
  return cell;
}

BreatheCell scenario_cell(const MajorityScenario& scenario) {
  BreatheCell cell = breathe_cell(
      "majority", scenario, scenario.initial_set,
      correct_count(scenario.majority_bias, scenario.initial_set,
                    "run_majority: majority_bias"));
  cell.spec.schedule = scenario.schedule;
  cell.spec.churn = scenario.churn;
  cell.spec.probe_every = scenario.probe_every;
  return cell;
}

BreatheCell scenario_cell(const BoostScenario& scenario) {
  BreatheCell cell = breathe_cell(
      "boost", scenario, scenario.n,
      correct_count(scenario.initial_bias, scenario.n,
                    "run_boost: initial_bias"));
  cell.spec.skip_stage1 = true;
  return cell;
}

/// What the exact engines fix before a cell's first trial: the calibrated
/// schedule and the protocol config (whose seed list is O(n) for boost).
/// The run_* functions build one per call; breathe_trial_fn one per cell,
/// shared read-only across the harness's worker threads.
struct ExactCell : BreatheCell {
  Params params;
  BreatheConfig config;
};

/// At |A| = 1, majority_config is broadcast_config (one source, phase 0).
ExactCell exact_cell(const BreatheCell& cell) {
  const SurrogateSpec& spec = cell.spec;
  const Params params = Params::calibrated(spec.n, spec.eps, spec.tuning);
  ExactCell exact{cell, params,
                  majority_config(params, spec.initial_set,
                                  spec.initial_correct, cell.correct)};
  exact.config.skip_stage1 = spec.skip_stage1;
  exact.config.stage1_pick = cell.stage1_pick;
  exact.config.stage2_subset = cell.stage2_subset;
  if (spec.heterogeneous && spec.schedule.enabled()) {
    throw std::invalid_argument(
        "breathe scenario: heterogeneous noise and an eps schedule are "
        "mutually exclusive");
  }
  if (cell.adversarial_budget != 0 &&
      (spec.heterogeneous || spec.schedule.enabled())) {
    throw std::invalid_argument(
        "breathe scenario: the adversarial channel excludes heterogeneous "
        "noise and eps schedules");
  }
  return exact;
}

/// One exact breathe execution — the single substrate dispatch behind
/// every run_broadcast / run_majority / run_boost call and every exact
/// breathe trial fn. Builds the channel the cell selects (at most one of
/// adversarial / schedule / heterogeneous; churn and topology are
/// orthogonal), runs it on the batch fast path unless the engine is
/// classic, the channel is adversarial, or the schedule cannot be packed
/// (breathe_fast_supported), and otherwise on the oracle Engine +
/// BreatheProtocol. Either way it fills the leased arena's result; both
/// substrates draw from the same keys, so the result is the same bits.
const BreatheFastResult& run_breathe_trial(const ExactCell& cell,
                                           std::uint64_t seed,
                                           std::size_t trial,
                                           TrialArena& arena) {
  const SurrogateSpec& spec = cell.spec;
  const StreamKey key = trial_stream_key(seed, trial);
  BreatheRunOptions options;
  options.engine.probe_every = spec.probe_every;
  options.engine.churn = spec.churn;
  options.engine.topology = cell.topology;
  options.shards = cell.shards;
  options.pool = shard_pool(cell.shards);
  const Round budget =
      breathe_schedule(cell.params, cell.config.start_phase,
                       cell.config.skip_stage1, spec.stage1_only)
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
                                 spec.stage1_only, options, result);
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
  if (cell.adversarial_budget != 0) {
    AdversarialChannel channel(cell.adversarial_budget);
    run(channel);
  } else if (spec.schedule.enabled()) {
    // Anchor open-ended schedule segments ("ramp over the whole run") to
    // the rounds this execution will actually run.
    CorrelatedBurstChannel channel(spec.schedule.resolved(spec.eps, budget));
    run(channel);
  } else if (spec.heterogeneous) {
    HeterogeneousChannel channel(spec.eps);
    run(channel);
  } else {
    BinarySymmetricChannel channel(spec.eps);
    run(channel);
  }

  if (spec.stage1_only) {
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
  const ExactCell exact = exact_cell(cell);
  if (cell.engine == EngineMode::kSurrogate) {
    // The surrogate yields analytic moments, not one execution's samples:
    // there is no RunDetail to return.
    throw std::invalid_argument(
        "breathe scenario: the surrogate engine has no per-execution "
        "RunDetail; use the trial-fn adapters");
  }
  TrialArenaLease arena;
  const BreatheFastResult& result =
      run_breathe_trial(exact, seed, trial, *arena);
  RunDetail detail;
  detail.metrics = result.metrics;
  detail.success = result.success;
  detail.correct_fraction = result.correct_fraction;
  detail.final_bias = result.final_bias;
  detail.protocol_rounds = result.protocol_rounds;
  detail.stage1 = result.stage1;
  detail.stage2 = result.stage2;
  detail.convergence_round =
      activation_convergence(result.metrics, exact.params.n());
  return detail;
}

/// The Monte-Carlo adapter over one cell. The surrogate's rate equations
/// need a stateless channel and a 1/(n-1) chance for every sender to reach
/// every recipient, so it refuses the adversarial channel and a sparse
/// graph rather than integrate the wrong dynamics. The exact closure holds
/// the prepared cell, and only scalars leave the arena, so after one
/// warm-up trial per cell shape a batch trial with a static channel, its
/// shard phases inline or on a ThreadPool, allocates nothing
/// (tests/trial_arena_test.cpp).
TrialFn breathe_trial_fn(const BreatheCell& cell) {
  if (cell.engine == EngineMode::kSurrogate) {
    if (cell.adversarial_budget != 0) {
      throw std::invalid_argument(
          std::string(cell.problem) +
          ": the adversarial channel is stateful and order-dependent — no "
          "per-round rate exists for the surrogate engine; use --engine "
          "batch or --engine classic");
    }
    if (!cell.topology.complete()) {
      throw std::invalid_argument(
          std::string(cell.problem) + ": the mean-field surrogate engine "
          "models the complete interaction graph only, not topology '" +
          cell.topology.describe() +
          "'; use --engine batch or --engine classic");
    }
    return surrogate_trial_fn(cell.spec);
  }
  return [exact = exact_cell(cell)](std::uint64_t seed, std::size_t trial) {
    TrialArenaLease arena;
    const BreatheFastResult& result =
        run_breathe_trial(exact, seed, trial, *arena);
    TrialOutcome outcome = metrics_outcome(result.metrics);
    outcome.success = result.success;
    outcome.correct_fraction = result.correct_fraction;
    outcome.convergence_round =
        activation_convergence(result.metrics, exact.params.n());
    return outcome;
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
  return breathe_detail(scenario_cell(scenario), seed, trial);
}

RunDetail run_majority(const MajorityScenario& scenario, std::uint64_t seed,
                       std::size_t trial) {
  return breathe_detail(scenario_cell(scenario), seed, trial);
}

RunDetail run_boost(const BoostScenario& scenario, std::uint64_t seed,
                    std::size_t trial) {
  return breathe_detail(scenario_cell(scenario), seed, trial);
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
  return breathe_trial_fn(scenario_cell(scenario));
}

TrialFn majority_trial_fn(MajorityScenario scenario) {
  return breathe_trial_fn(scenario_cell(scenario));
}

TrialFn boost_trial_fn(BoostScenario scenario) {
  return breathe_trial_fn(scenario_cell(scenario));
}

TrialFn desync_trial_fn(DesyncScenario scenario) {
  return [scenario](std::uint64_t seed, std::size_t trial) {
    return to_outcome(run_desync(scenario, seed, trial));
  };
}

}  // namespace flip
