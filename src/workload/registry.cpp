#include "workload/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "baselines/aae.hpp"
#include "baselines/forward.hpp"
#include "baselines/pull_majority.hpp"
#include "baselines/silent.hpp"
#include "baselines/voter.hpp"
#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "workload/scenarios.hpp"

namespace flip {

namespace {

/// Probe period the dynamic-environment entries record their activation /
/// bias series at: dense enough for a sharp convergence-round estimate,
/// sparse enough to stay cheap. The classic entries keep probes off.
constexpr Round kDynamicProbeEvery = 8;

/// The majority entries' initial set |A| = max(64, n/16): Corollary 2.18's
/// n/16, floored so small populations still seed a usable sample. It must
/// fit in n, so those entries declare min_n = kMajorityMinN.
constexpr std::size_t kMajorityMinN = 64;
std::size_t majority_initial_set(std::size_t n) {
  return std::max(kMajorityMinN, n / 16);
}

/// kDynamicProbeEvery under a dynamic environment, a sparse graph or the
/// adversarial channel; 0 (no probes) for a static run on the complete graph.
Round probe_every(const ScenarioConfig& config) {
  const bool dynamic = config.schedule.enabled() || config.churn.enabled() ||
                       !config.topology.complete() ||
                       config.channel == kChannelAdversarial;
  return dynamic ? kDynamicProbeEvery : 0;
}

BroadcastScenario broadcast_from(const ScenarioConfig& config) {
  BroadcastScenario scenario;
  scenario.n = config.n;
  scenario.eps = config.eps;
  scenario.heterogeneous_noise = config.channel == kChannelHeterogeneous;
  scenario.engine = config.engine;
  scenario.shards = config.shards;
  scenario.schedule = config.schedule;
  scenario.churn = config.churn;
  scenario.topology = config.topology;
  scenario.probe_every = probe_every(config);
  if (config.channel == kChannelAdversarial) {
    // Ablation budget: n/2 deterministic flips — the same order of
    // magnitude of extra flips the default burst schedule injects, but
    // spent adversarially on the earliest (most influential) messages.
    scenario.adversarial_budget = config.n / 2;
  }
  return scenario;
}

/// Corollary 2.18's majority-consensus: |A| = max(64, n/16) with
/// majority-bias 0.25.
MajorityScenario majority_from(const ScenarioConfig& config) {
  MajorityScenario scenario;
  scenario.n = config.n;
  scenario.eps = config.eps;
  scenario.initial_set = majority_initial_set(config.n);
  scenario.majority_bias = 0.25;
  scenario.engine = config.engine;
  scenario.shards = config.shards;
  scenario.schedule = config.schedule;
  scenario.churn = config.churn;
  scenario.topology = config.topology;
  scenario.probe_every = probe_every(config);
  return scenario;
}

void register_builtin(ScenarioRegistry& registry) {
  const std::vector<std::string> bsc = {std::string(kChannelBsc)};
  const std::vector<std::string> bsc_or_hetero = {
      std::string(kChannelBsc), std::string(kChannelHeterogeneous)};

  // Marks which environment overrides a scenario's factory actually plumbs
  // through (resolve() rejects the rest). The breathe scenarios honor
  // both; desync honors schedules only (its protocol has its own wake
  // semantics, so churn is deliberately not offered); boost and the
  // baseline dynamics honor neither.
  const auto env = [](ScenarioInfo info, bool schedule, bool churn) {
    info.supports_schedule = schedule;
    info.supports_churn = churn;
    return info;
  };

  // Marks a baseline dynamic: its factory calibrates no Params, so
  // resolve() lets it take the channels' whole domain, n >= 2 and eps up
  // to 0.5, instead of the Params domain every other entry declares.
  const auto baseline = [](ScenarioInfo info) {
    info.calibrates_params = false;
    info.min_n = 2;
    return info;
  };

  // Marks a majority entry: its initial set must fit in n.
  const auto majority_floor = [](ScenarioInfo info) {
    info.min_n = kMajorityMinN;
    return info;
  };

  // Marks a breathe-family scenario (broadcast / majority / boost): its
  // factory dispatches on the engine mode and plumbs a non-complete
  // interaction graph and a shard count through to the engines. The desync
  // protocols, the adversarial ablation and the baseline dynamics run one
  // substrate on the complete graph. `spec`, when given, becomes the
  // entry's default topology (TopologySpec::parse grammar).
  const auto batch_breathe = [](ScenarioInfo info, const char* spec = nullptr) {
    info.batch_breathe = true;
    if (spec != nullptr) info.default_topology = TopologySpec::parse(spec);
    return info;
  };

  // The factory of every broadcast / majority / desync entry whose
  // registered defaults are all that sets it apart.
  const ScenarioFactory broadcast = [](const ScenarioConfig& config) {
    return broadcast_trial_fn(broadcast_from(config));
  };
  const ScenarioFactory majority = [](const ScenarioConfig& config) {
    return majority_trial_fn(majority_from(config));
  };
  const ScenarioFactory desync = [](const ScenarioConfig& config) {
    DesyncScenario scenario;
    scenario.n = config.n;
    scenario.eps = config.eps;
    scenario.max_skew = 8;
    scenario.schedule = config.schedule;
    return desync_trial_fn(scenario);
  };

  registry.add(
      batch_breathe(env({"broadcast", "Section 2 noisy broadcast: the two-stage breathe protocol",
       "broadcast", 1024, 0.2, bsc_or_hetero}, true, true)),
      broadcast);

  registry.add(
      batch_breathe(env({"broadcast_small",
       "CI-sized broadcast (seconds per trial even in Debug)", "broadcast",
       256, 0.3, bsc_or_hetero}, true, true)),
      broadcast);

  registry.add(
      batch_breathe(env({"broadcast_large", "Broadcast at the sizes the scaling benches use",
       "broadcast", 8192, 0.2, bsc_or_hetero}, true, true)),
      broadcast);

  registry.add(
      batch_breathe(env({"broadcast_stage1",
       "Stage I in isolation; success = every agent activated", "broadcast",
       1024, 0.2, bsc_or_hetero}, true, true)),
      [](const ScenarioConfig& config) {
        BroadcastScenario scenario = broadcast_from(config);
        scenario.stage1_only = true;
        return broadcast_trial_fn(scenario);
      });

  registry.add(
      batch_breathe(env({"broadcast_variant_rules",
       "Remarks 2.1/2.10 rule variants: first-message pick, prefix subset",
       "broadcast", 1024, 0.2, bsc_or_hetero}, true, true)),
      [](const ScenarioConfig& config) {
        BroadcastScenario scenario = broadcast_from(config);
        scenario.stage1_pick = Stage1Pick::kFirstMessage;
        scenario.stage2_subset = Stage2Subset::kPrefixSubset;
        return broadcast_trial_fn(scenario);
      });

  // --- dynamic-environment scenarios (core/environment.hpp) -------------
  // All of them obey the determinism contract: the schedule lottery and
  // the churn events come from counter-keyed streams, so every entry is
  // bit-identical across engines, threads, and shards (the adversarial
  // ablation pins the reference Engine for its order-dependent channel).

  {
    // Whole-run ramp from comfortable noise (eps 0.35) down through and
    // past the calibrated advantage (0.2) to eps 0.1: the schedule is
    // sized for more reliability than the tail delivers.
    EnvironmentSchedule ramp;
    ramp.segments.push_back(EpsSegment{0, 0, 0.35, 0.1});
    registry.add(
        batch_breathe(env({"broadcast_eps_ramp",
         "Broadcast under a whole-run eps ramp 0.35 -> 0.1 (ends below the "
         "calibrated advantage)",
         "broadcast", 1024, 0.2, bsc, ramp}, true, true)),
        broadcast);
  }

  {
    // Correlated noise bursts: ~8% of 16-round windows collapse to
    // eps 0.02 (near-coin-flip noise) for the whole window at once —
    // correlated across messages, which the per-message BSC analysis does
    // not cover.
    EnvironmentSchedule burst;
    burst.burst_prob = 0.08;
    burst.burst_len = 16;
    burst.burst_eps = 0.02;
    registry.add(
        batch_breathe(env({"broadcast_burst",
         "Broadcast with correlated noise bursts (8% of 16-round windows "
         "at eps 0.02)",
         "broadcast", 1024, 0.2, bsc, burst}, true, true)),
        broadcast);

    registry.add(
        env({"desync_burst",
         "Desync broadcast (skew D = 8) under the same correlated noise "
         "bursts",
         "desync", 1024, 0.2, bsc, burst}, true, false),
        desync);
  }

  {
    // Steady-state churn: ~4.8% of agents asleep at any time (sleep 0.005
    // / wake 0.1 per round), exercising the join/sleep/wake merge path of
    // both engines.
    ChurnSpec churn;
    churn.sleep_prob = 0.005;
    churn.wake_prob = 0.1;
    registry.add(
        batch_breathe(env({"broadcast_churn",
         "Broadcast with agent churn (sleep 0.005 / wake 0.1 per round)",
         "broadcast", 1024, 0.2, bsc, EnvironmentSchedule{}, churn}, true, true)),
        broadcast);

    // Majority additionally starts with a quarter of the population not
    // yet joined — late joiners adopt opinions through Stage I as they
    // wake.
    ChurnSpec join_churn = churn;
    join_churn.start_asleep = 0.25;
    registry.add(
        majority_floor(batch_breathe(env({"majority_churn",
         "Majority-consensus with churn and 25% late joiners "
         "(start_asleep 0.25)",
         "majority", 1024, 0.2, bsc, EnvironmentSchedule{}, join_churn}, true, true))),
        majority);
  }

  registry.add(
      env({"broadcast_adversarial",
       "Ablation vs broadcast_burst: n/2 flips spent adversarially on the "
       "earliest messages (reference Engine only)",
       "broadcast", 1024, 0.2, {std::string(kChannelAdversarial)}}, false, true),
      broadcast);

  // --- sparse-topology scenarios (core/topology.hpp) --------------------
  // The paper's open empirical question: where do the broadcast/majority
  // noise thresholds sit when the interaction graph is NOT complete? Each
  // entry presets one family at n = 1024 (the grid factors as 32 x 32);
  // --topology overrides the family on any of the breathe entries above.
  // All run the same counter-keyed streams, so batch == classic == any
  // shard count, bit for bit.

  registry.add(
      batch_breathe(env({"broadcast_ring_k8",
       "Broadcast on the k = 8 ring: diameter n/8 dwarfs the O(log n) "
       "stage budgets (locality stress case)",
       "broadcast", 1024, 0.2, bsc}, true, true), "ring:8"),
      broadcast);

  registry.add(
      batch_breathe(env({"broadcast_grid_r2",
       "Broadcast on a 2-D torus, Chebyshev radius 2 (degree 24, diameter "
       "~sqrt(n)/4)",
       "broadcast", 1024, 0.2, bsc}, true, true), "grid:2"),
      broadcast);

  registry.add(
      batch_breathe(env({"broadcast_smallworld",
       "Broadcast on a Watts-Strogatz small world (k = 8, rewire p = 0.1): "
       "shortcuts restore O(log n) diameter",
       "broadcast", 1024, 0.2, bsc}, true, true), "smallworld:8:0.1"),
      broadcast);

  registry.add(
      majority_floor(batch_breathe(env({"majority_smallworld",
       "Majority-consensus on a Watts-Strogatz small world (k = 8, rewire "
       "p = 0.1)",
       "majority", 1024, 0.2, bsc}, true, true), "smallworld:8:0.1")),
      majority);

  registry.add(
      batch_breathe(env({"broadcast_dynamic_rewire",
       "Broadcast on a per-round rewired k = 8 graph (p = 0.1 per edge per "
       "round): the graph itself churns",
       "broadcast", 1024, 0.2, bsc}, true, true), "dynamic:8:0.1"),
      broadcast);

  registry.add(
      majority_floor(batch_breathe(env({"majority",
       "Corollary 2.18 majority-consensus: |A| = n/16, majority-bias 0.25",
       "majority", 1024, 0.2, bsc}, true, true))),
      majority);

  registry.add(
      batch_breathe({"boost",
       "Stage II in isolation (Lemma 2.14): bias 0.02 boosted to consensus",
       "boost", 4096, 0.25, bsc}),
      [](const ScenarioConfig& config) {
        BoostScenario scenario;
        scenario.n = config.n;
        scenario.eps = config.eps;
        scenario.engine = config.engine;
        scenario.shards = config.shards;
        scenario.topology = config.topology;
        return boost_trial_fn(scenario);
      });

  registry.add(
      env({"desync", "Section 3 broadcast without a global clock, skew D = 8",
       "desync", 1024, 0.2, bsc}, true, false),
      desync);

  registry.add(
      env({"desync_clock_sync",
       "Desync broadcast behind the Section 3.2 clock-sync pre-phase",
       "desync", 1024, 0.2, bsc}, true, false),
      [](const ScenarioConfig& config) {
        DesyncScenario scenario;
        scenario.n = config.n;
        scenario.eps = config.eps;
        scenario.use_clock_sync = true;
        scenario.schedule = config.schedule;
        return desync_trial_fn(scenario);
      });

  registry.add(
      baseline({"baseline_silent",
       "Sec 1.6 silent-listening strawman: correct but Theta(n log n/eps^2)",
       "broadcast", 256, 0.3, bsc}),
      [](const ScenarioConfig& config) {
        return TrialFn([config](std::uint64_t seed, std::size_t trial) {
          const double unit = theory::round_unit(config.n, config.eps);
          BinarySymmetricChannel channel(config.eps);
          SilentConfig silent;
          silent.samples_needed =
              next_odd(static_cast<std::uint64_t>(unit));
          silent.max_rounds = static_cast<Round>(
              64.0 * static_cast<double>(config.n) * unit);
          SilentListeningProtocol protocol(config.n, silent);
          Engine engine(config.n, channel, trial_stream_key(seed, trial));
          TrialOutcome outcome =
              metrics_outcome(engine.run(protocol, silent.max_rounds));
          outcome.correct_fraction =
              protocol.population().correct_fraction(Opinion::kOne);
          outcome.success =
              protocol.all_decided() && outcome.correct_fraction == 1.0;
          return outcome;
        });
      });

  registry.add(
      baseline({"baseline_forward",
       "Sec 1.6 forward-now strawman: fast, bias decays (2 eps)^depth",
       "broadcast", 1024, 0.2, bsc}),
      [](const ScenarioConfig& config) {
        return TrialFn([config](std::uint64_t seed, std::size_t trial) {
          BinarySymmetricChannel channel(config.eps);
          ForwardConfig forward;
          forward.initial = {Seed{0, Opinion::kOne}};
          forward.stop_when_all_informed = true;
          ForwardGossipProtocol protocol(config.n, forward);
          Engine engine(config.n, channel, trial_stream_key(seed, trial));
          TrialOutcome outcome =
              metrics_outcome(engine.run(protocol, Round{1} << 20));
          outcome.success = protocol.population().unanimous(Opinion::kOne);
          outcome.correct_fraction =
              protocol.population().correct_fraction(Opinion::kOne);
          return outcome;
        });
      });

  registry.add(
      baseline({"baseline_voter",
       "Noisy voter with a zealot source: hovers near 50/50 (refs 49, 50)",
       "broadcast", 1024, 0.2, bsc}),
      [](const ScenarioConfig& config) {
        return TrialFn([config](std::uint64_t seed, std::size_t trial) {
          const double unit = theory::round_unit(config.n, config.eps);
          BinarySymmetricChannel channel(config.eps);
          VoterConfig voter;
          voter.zealots = {Seed{0, Opinion::kOne}};
          voter.duration = static_cast<Round>(16.0 * unit);
          NoisyVoterProtocol protocol(config.n, voter);
          Engine engine(config.n, channel, trial_stream_key(seed, trial));
          TrialOutcome outcome =
              metrics_outcome(engine.run(protocol, voter.duration));
          outcome.success = protocol.population().unanimous(Opinion::kOne);
          outcome.correct_fraction =
              protocol.population().correct_fraction(Opinion::kOne);
          return outcome;
        });
      });

  const auto pull_factory = [](PullRule rule, double samples_per_round) {
    return [rule, samples_per_round](const ScenarioConfig& config) {
      return TrialFn([config, rule, samples_per_round](std::uint64_t seed,
                                                       std::size_t trial) {
        const double unit = theory::round_unit(config.n, config.eps);
        BinarySymmetricChannel channel(config.eps);
        PullMajorityConfig pull;
        pull.rule = rule;
        pull.initial_correct_fraction = 0.6;
        pull.max_rounds = static_cast<Round>(8.0 * unit);
        PullMajorityDynamics dynamics(config.n, pull, channel,
                                      trial_stream_key(seed, trial));
        const PullMajorityResult result = dynamics.run();
        TrialOutcome outcome;
        outcome.success = result.consensus && result.correct;
        outcome.correct_fraction = result.final_correct_fraction;
        outcome.rounds = static_cast<double>(result.rounds);
        outcome.messages = static_cast<double>(result.rounds) *
                           static_cast<double>(config.n) * samples_per_round;
        return outcome;
      });
    };
  };

  registry.add(
      baseline({"baseline_two_choices",
       "Two-choices pull dynamics (ref 22) run through the noisy channel",
       "majority", 1024, 0.2, bsc}),
      pull_factory(PullRule::kTwoPlusOwn, 2.0));

  registry.add(
      baseline({"baseline_three_majority",
       "3-majority pull dynamics (ref 11) run through the noisy channel",
       "majority", 1024, 0.2, bsc}),
      pull_factory(PullRule::kThreeSamples, 3.0));

  registry.add(
      baseline({"baseline_aae",
       "Angluin-Aspnes-Eisenstat 3-state dynamics; noisy misreads break it",
       "majority", 1024, 0.2, bsc}),
      [](const ScenarioConfig& config) {
        return TrialFn([config](std::uint64_t seed, std::size_t trial) {
          const double unit = theory::round_unit(config.n, config.eps);
          AAEConfig aae;
          aae.initial_correct = config.n * 3 / 10;
          aae.initial_wrong = config.n / 10;
          aae.eps = config.eps;
          aae.max_rounds = static_cast<Round>(8.0 * unit);
          ThreeStateAAE dynamics(config.n, aae, trial_stream_key(seed, trial));
          const AAEResult result = dynamics.run();
          TrialOutcome outcome;
          outcome.success = result.consensus && result.correct;
          outcome.correct_fraction = result.final_correct_fraction;
          outcome.rounds = static_cast<double>(result.rounds);
          outcome.messages = static_cast<double>(result.rounds) *
                             static_cast<double>(config.n);
          return outcome;
        });
      });
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    register_builtin(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(ScenarioInfo info, ScenarioFactory factory) {
  if (info.name.empty()) {
    throw std::invalid_argument("ScenarioRegistry::add: empty name");
  }
  if (info.channels.empty()) {
    throw std::invalid_argument("ScenarioRegistry::add: '" + info.name +
                                "' registers no channels");
  }
  if (info.default_n == 0) {
    throw std::invalid_argument("ScenarioRegistry::add: '" + info.name +
                                "' has default_n == 0");
  }
  if (!factory) {
    throw std::invalid_argument("ScenarioRegistry::add: '" + info.name +
                                "' has no factory");
  }
  try {
    info.default_schedule.validate();
    info.default_churn.validate();
    info.default_topology.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("ScenarioRegistry::add: '" + info.name +
                                "': " + e.what());
  }
  if ((info.default_schedule.enabled() && !info.supports_schedule) ||
      (info.default_churn.enabled() && !info.supports_churn) ||
      (!info.default_topology.complete() && !info.batch_breathe)) {
    throw std::invalid_argument("ScenarioRegistry::add: '" + info.name +
                                "' registers a dynamic default it does not "
                                "declare support for");
  }
  if (contains(info.name)) {
    throw std::invalid_argument("ScenarioRegistry::add: duplicate '" +
                                info.name + "'");
  }
  entries_.push_back(Entry{std::move(info), std::move(factory)});
}

std::vector<const ScenarioInfo*> ScenarioRegistry::list() const {
  std::vector<const ScenarioInfo*> infos;
  infos.reserve(entries_.size());
  for (const Entry& entry : entries_) infos.push_back(&entry.info);
  std::sort(infos.begin(), infos.end(),
            [](const ScenarioInfo* a, const ScenarioInfo* b) {
              return a->name < b->name;
            });
  return infos;
}

const ScenarioInfo* ScenarioRegistry::find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return &entry.info;
  }
  return nullptr;
}

bool ScenarioRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

const ScenarioRegistry::Entry& ScenarioRegistry::entry_or_throw(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return entry;
  }
  throw std::invalid_argument("unknown scenario '" + std::string(name) +
                              "' (see flipsim --list)");
}

ScenarioConfig ScenarioRegistry::resolve(std::string_view name,
                                         const ScenarioOverrides& o) const {
  const Entry& entry = entry_or_throw(name);
  ScenarioConfig config;
  config.n = o.n.value_or(entry.info.default_n);
  config.eps = o.eps.value_or(entry.info.default_eps);
  config.channel = o.channel.value_or(entry.info.channels.front());
  config.engine = o.engine.value_or(EngineMode::kBatch);
  config.shards = o.shards.value_or(1);
  if (config.engine == EngineMode::kSurrogate && !entry.info.batch_breathe) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name +
        "' has no mean-field surrogate model (the surrogate engine covers "
        "the broadcast/majority/boost families; use --engine batch or "
        "--engine classic here)");
  }
  // An override the factory would silently ignore is worse than an error:
  // the run would execute the static environment while reporting the
  // override in its output params.
  if (o.schedule && o.schedule->enabled() && !entry.info.supports_schedule) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "' does not support an eps schedule");
  }
  if (o.churn && o.churn->enabled() && !entry.info.supports_churn) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "' does not support agent churn");
  }
  if (o.topology && !o.topology->complete() && !entry.info.batch_breathe) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name +
        "' does not support a topology override (the breathe families — "
        "broadcast/majority/boost entries — do)");
  }
  config.schedule = o.schedule.value_or(entry.info.default_schedule);
  config.churn = o.churn.value_or(entry.info.default_churn);
  config.topology = o.topology.value_or(entry.info.default_topology);
  if (config.engine == EngineMode::kSurrogate &&
      !config.topology.complete()) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name +
        "': the mean-field surrogate engine models the complete interaction "
        "graph only, not topology '" + config.topology.describe() +
        "'; use --engine batch or --engine classic");
  }
  try {
    config.schedule.validate();
    config.churn.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "': " + e.what());
  }
  if (config.shards == 0 || config.shards > kMaxShards) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "': shards must be in 1.." +
                                std::to_string(kMaxShards) + ", got " +
                                std::to_string(config.shards));
  }
  if (config.shards > 1 && !entry.info.batch_breathe) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name +
        "' runs on one substrate and does not support shards > 1 (the "
        "breathe families — broadcast/majority/boost entries — do)");
  }
  if (config.shards > 1 && config.engine != EngineMode::kBatch) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name + "': --engine " +
        std::string(engine_mode_name(config.engine)) +
        " runs unsharded and does not support shards > 1 (only --engine "
        "batch shards a trial)");
  }
  if (config.n < entry.info.min_n) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name + "': n must be >= " +
        std::to_string(entry.info.min_n) + ", got " +
        std::to_string(config.n));
  }
  // n-dependent topology validation (k <= n - 2, grid factorization):
  // resolve here so a bad (topology, n) pair fails before any trial runs,
  // with the scenario named.
  try {
    (void)ResolvedTopology::resolve(config.topology, config.n);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "': " + e.what());
  }
  if (!(config.eps > 0.0) || config.eps > 0.5) {
    std::ostringstream os;
    os << "scenario '" << entry.info.name << "': eps must be in (0, 0.5], got "
       << config.eps;
    throw std::invalid_argument(os.str());
  }
  if (entry.info.calibrates_params && config.eps == 0.5) {
    throw std::invalid_argument(
        "scenario '" + entry.info.name +
        "': eps must be in (0, 0.5) to calibrate its schedule, got 0.5");
  }
  if (std::find(entry.info.channels.begin(), entry.info.channels.end(),
                config.channel) == entry.info.channels.end()) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "' does not support channel '" +
                                config.channel + "'");
  }
  // The heterogeneous channel and an eps schedule each pick the per-message
  // noise, so they cannot combine. Rejected here, not when the cell runs:
  // expand_grid resolves every cell first, so a grid crossing the two fails
  // before its first point on every engine, and the daemon at ingest.
  if (config.channel == kChannelHeterogeneous && config.schedule.enabled()) {
    throw std::invalid_argument("scenario '" + entry.info.name +
                                "': heterogeneous noise and an eps schedule "
                                "are mutually exclusive");
  }
  return config;
}

TrialFn ScenarioRegistry::make(std::string_view name,
                               const ScenarioOverrides& o) const {
  return make(name, resolve(name, o));
}

TrialFn ScenarioRegistry::make(std::string_view name,
                               const ScenarioConfig& config) const {
  return entry_or_throw(name).factory(config);
}

}  // namespace flip
