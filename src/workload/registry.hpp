#pragma once
// Enumerable scenario registry: every workload the repo can run, keyed by a
// stable name, with metadata (problem, defaults, supported channels) and a
// factory that builds the Monte-Carlo TrialFn for a resolved parameter
// point. tools/flipsim introspects this to run sweeps; tests walk it so a
// scenario cannot be registered without being executable.
//
// This replaces "pick the right run_* function and hand-wire its struct"
// with a uniform (name, n, eps, channel) interface, and it is the one place
// a registered workload's parameters are derived from (n, eps): flipsim,
// the daemon, model_explorer and the E9 table all run make(). The scenario
// structs in scenarios.hpp remain the typed API for code that needs every
// knob (the ablation and sweep benches); the registry exposes the grid
// dimensions sweeps actually vary.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/environment.hpp"
#include "core/topology.hpp"
#include "sim/engine.hpp"
#include "sim/trial.hpp"

namespace flip {

/// Static description of one registered scenario.
struct ScenarioInfo {
  std::string name;     ///< stable registry key, e.g. "broadcast_small"
  std::string summary;  ///< one line for `flipsim --list`
  std::string problem;  ///< "broadcast" | "majority" | "boost" | ...
  std::size_t default_n = 0;
  double default_eps = 0.0;
  /// Channel names this scenario accepts; [0] is the default.
  std::vector<std::string> channels;
  /// Dynamic-environment defaults: the static environment for the classic
  /// scenarios, a preset schedule/churn for the *_ramp/*_burst/*_churn
  /// entries. Overridable per sweep via --schedule / --churn.
  EnvironmentSchedule default_schedule{};
  ChurnSpec default_churn{};
  /// Interaction-graph default (core/topology.hpp): complete for the
  /// classic scenarios, a preset sparse family for the topology entries.
  /// Overridable per sweep via --topology on supporting scenarios.
  TopologySpec default_topology{};
  /// Whether this scenario's factory honors a schedule / churn override.
  /// resolve() REJECTS an enabled override on a scenario that does not —
  /// silently running the static environment while reporting the override
  /// in the output params would mislabel the data.
  bool supports_schedule = false;
  bool supports_churn = false;
  /// Whether the factory runs the breathe protocol through the engine
  /// dispatch of workload/scenarios (broadcast / majority / boost): it then
  /// honors a non-complete topology override (same rejection rule as the
  /// schedule/churn flags) and ScenarioConfig::shards > 1. The desync
  /// protocols, the adversarial ablation and the baseline dynamics run one
  /// substrate, so resolve() rejects a sparse graph or shards > 1 on them
  /// rather than running complete or unsharded under the override's label.
  bool batch_breathe = false;
  /// The smallest n the factory accepts; resolve() rejects a smaller one
  /// naming the entry, so a sweep grid fails before its first cell. The
  /// default is the Params domain's n >= 4 (the breathe families and
  /// desync calibrate Params); the majority entries raise it to 64, since
  /// their initial set of max(64, n/16) agents must fit in n, and the
  /// baselines lower it to 2.
  std::size_t min_n = 4;
  /// Whether the factory calibrates Params (core/params.hpp), whose eps
  /// domain is open at 0.5: resolve() then rejects eps = 0.5. The
  /// baselines clear it and take the channels' closed domain.
  bool calibrates_params = true;

  /// Whether EngineMode::kSurrogate runs this entry at its defaults. The
  /// mean-field engine of sim/surrogate_engine.hpp models the breathe
  /// families on the complete graph only (no sparse-graph rate model), and
  /// nothing else: the adversarial ablation has a stateful channel, desync
  /// per-agent clocks, and the baseline dynamics no per-round rate model.
  /// resolve() rejects the surrogate on the others, naming the topology
  /// when that is what is missing.
  [[nodiscard]] bool supports_surrogate() const {
    return batch_breathe && default_topology.complete();
  }
};

/// One resolved grid point the factory builds a TrialFn for.
struct ScenarioConfig {
  std::size_t n = 0;
  double eps = 0.0;
  std::string channel;
  /// Substrate the factory should run on. Results are identical either way
  /// (both draw from the same counter-keyed per-agent streams); kClassic
  /// exists for A/B timing and the equivalence tests.
  EngineMode engine = EngineMode::kBatch;
  /// Intra-trial shard count (batch breathe scenarios parallelize each
  /// round over this many partitions). Results are bit-identical for every
  /// value. resolve() validates 1..kMaxShards and rejects shards > 1 on
  /// entries without batch_breathe and on the classic and surrogate
  /// engines, which run unsharded.
  std::size_t shards = 1;
  /// Resolved dynamic environment: the override when one was given, the
  /// scenario's registered default otherwise. Validated by resolve().
  EnvironmentSchedule schedule{};
  ChurnSpec churn{};
  /// Resolved interaction graph: the override when one was given, the
  /// scenario's registered default otherwise. resolve() validates it
  /// against n (and rejects non-complete graphs on the surrogate engine,
  /// which has no sparse-graph rate model).
  TopologySpec topology{};
};

/// Optional overrides for the registry's defaults (empty = default).
struct ScenarioOverrides {
  std::optional<std::size_t> n;
  std::optional<double> eps;
  std::optional<std::string> channel;
  std::optional<EngineMode> engine;
  std::optional<std::size_t> shards;
  std::optional<EnvironmentSchedule> schedule;
  std::optional<ChurnSpec> churn;
  std::optional<TopologySpec> topology;
};

/// Upper bound resolve() accepts for ScenarioConfig::shards: beyond this a
/// shard is sub-cacheline work and the merge overhead can only lose.
inline constexpr std::size_t kMaxShards = 256;

using ScenarioFactory = std::function<TrialFn(const ScenarioConfig&)>;

class ScenarioRegistry {
 public:
  /// The process-wide registry, populated with every built-in scenario on
  /// first use. Thread-safe construction (magic static); `add` afterwards
  /// is not synchronized — register from one thread (tests, plugins' main).
  static ScenarioRegistry& instance();

  /// Registers a scenario. Throws std::invalid_argument on a duplicate
  /// name, an empty channel list, or a zero default_n.
  void add(ScenarioInfo info, ScenarioFactory factory);

  /// All registered scenarios, sorted by name (stable output for --list).
  [[nodiscard]] std::vector<const ScenarioInfo*> list() const;

  [[nodiscard]] const ScenarioInfo* find(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Resolves overrides against the scenario's defaults. Throws
  /// std::invalid_argument for an unknown scenario or unsupported channel.
  [[nodiscard]] ScenarioConfig resolve(std::string_view name,
                                       const ScenarioOverrides& o) const;

  /// resolve() + factory: the TrialFn for one grid point.
  [[nodiscard]] TrialFn make(std::string_view name,
                             const ScenarioOverrides& o) const;
  [[nodiscard]] TrialFn make(std::string_view name,
                             const ScenarioConfig& config) const;

 private:
  struct Entry {
    ScenarioInfo info;
    ScenarioFactory factory;
  };
  const Entry& entry_or_throw(std::string_view name) const;

  std::vector<Entry> entries_;  // few dozen entries: linear scan is fine
};

/// Channel names understood by scenarios that take a channel override.
inline constexpr std::string_view kChannelBsc = "bsc";
inline constexpr std::string_view kChannelHeterogeneous = "heterogeneous";
/// The budget-bounded adversary (ablation entries only): order-dependent
/// by construction, so scenarios using it always run the reference Engine.
inline constexpr std::string_view kChannelAdversarial = "adversarial";

}  // namespace flip
