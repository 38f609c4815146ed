#include "cli/sweep.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

namespace flip::cli {

namespace {

// Repeated axis values would produce duplicate grid points. Order-preserving
// dedup, O(k log k) because the list comes from an untrusted request. A NaN
// equals nothing, so it is kept (resolve rejects it) and never enters the
// ordered set.
template <typename T>
std::vector<std::optional<T>> axis_values(const std::vector<T>& values) {
  std::vector<std::optional<T>> axis;
  if (values.empty()) {
    axis.push_back(std::nullopt);
    return axis;
  }
  std::set<T> seen;
  for (const T& value : values) {
    if (!(value == value) || seen.insert(value).second) {
      axis.emplace_back(value);
    }
  }
  return axis;
}

}  // namespace

std::vector<ScenarioConfig> expand_grid(const SweepSpec& spec) {
  if (spec.trials == 0) {
    throw std::invalid_argument("run_sweep: trials == 0");
  }
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  // Materialize each axis with a one-element "default" entry so the cross
  // product below stays a plain triple loop. nullopt — not a sentinel
  // value — means "use the scenario default", so an explicit 0 still
  // reaches resolve() and fails validation there.
  const auto ns = axis_values(spec.ns);
  const auto epss = axis_values(spec.epss);
  const auto channels = axis_values(spec.channels);
  // Count the cells before building any: the axes come from an untrusted
  // request, and their product can ask for gigabytes (or wrap size_t)
  // long before resolve() would reject a point.
  std::size_t cells = 1;
  for (const std::size_t axis : {ns.size(), epss.size(), channels.size()}) {
    if (axis > kMaxGridCells / cells) {
      throw std::invalid_argument(
          "sweep grid has more than " + std::to_string(kMaxGridCells) +
          " cells (" + std::to_string(ns.size()) + " n x " +
          std::to_string(epss.size()) + " eps x " +
          std::to_string(channels.size()) +
          " channel values); split it into smaller sweeps");
    }
    cells *= axis;
  }

  std::vector<ScenarioConfig> grid;
  grid.reserve(cells);
  for (const auto& n : ns) {
    for (const auto& eps : epss) {
      for (const auto& channel : channels) {
        ScenarioOverrides overrides;
        overrides.n = n;
        overrides.eps = eps;
        overrides.channel = channel;
        overrides.engine = spec.engine;
        overrides.shards = spec.shards;
        overrides.schedule = spec.schedule;
        overrides.churn = spec.churn;
        overrides.topology = spec.topology;
        grid.push_back(registry.resolve(spec.scenario, overrides));
      }
    }
  }
  if (spec.first_cell > grid.size()) {
    throw std::invalid_argument(
        "run_sweep: first_cell " + std::to_string(spec.first_cell) +
        " is past the " + std::to_string(grid.size()) +
        "-cell grid (stale checkpoint for a different spec?)");
  }
  return grid;
}

std::optional<std::string> validate_threads(std::size_t threads,
                                            std::size_t hardware) {
  if (threads == 0) {
    return "--threads: 0 is not a worker count (omit the flag for the "
           "default)";
  }
  // hardware == 0: the runtime cannot detect the core count. Fall back to
  // a floor of 1 — accept any positive request — instead of comparing
  // against an upper bound of 0, which would reject everything.
  if (hardware != 0 && threads > hardware) {
    return "--threads: " + std::to_string(threads) + " is outside 1.." +
           std::to_string(hardware) + " (this machine's hardware "
           "concurrency)";
  }
  return std::nullopt;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepPointSink& on_point) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  // Validates every point (including the scenario name) up front, so a
  // typo fails fast instead of after minutes of simulation.
  const std::vector<ScenarioConfig> grid = expand_grid(spec);

  // One persistent pool serves every grid cell of every sweep: workers are
  // spawned once per distinct --threads value and then live for the whole
  // process, so the per-worker TrialArena scratch (thread_local) survives
  // across cells and repeated run_sweep calls instead of being torn down
  // and re-allocated with a per-sweep pool.
  ThreadPool* pool =
      spec.threads != 0 ? &ThreadPool::sized(spec.threads) : nullptr;

  SweepResult result;
  result.spec = spec;
  if (spec.collect_points) {
    result.points.reserve(grid.size() - spec.first_cell);
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  for (std::size_t cell = spec.first_cell; cell < grid.size(); ++cell) {
    TrialOptions options;
    options.trials = spec.trials;
    options.master_seed = spec.seed;
    options.pool = pool;
    SweepPoint point;
    point.config = grid[cell];
    point.summary =
        run_trials(registry.make(spec.scenario, point.config), options);
    if (on_point) on_point(cell, point);
    if (spec.collect_points) result.points.push_back(std::move(point));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  return result;
}

SurrogateValidationResult run_surrogate_validation(
    const SurrogateValidationSpec& spec) {
  if (spec.trials == 0 || spec.surrogate_trials == 0) {
    throw std::invalid_argument("run_surrogate_validation: zero trials");
  }
  const ScenarioRegistry& registry = ScenarioRegistry::instance();

  std::vector<std::string> scenarios = spec.scenarios;
  if (scenarios.empty()) {
    for (const ScenarioInfo* info : registry.list()) {
      if (info->supports_surrogate()) scenarios.push_back(info->name);
    }
  }

  // Resolve every cell on both engines before running any, so a bad name
  // or n fails with resolve()'s message before minutes of Monte Carlo.
  SurrogateValidationResult result;
  result.spec = spec;
  std::vector<ScenarioConfig> surrogate_configs;
  const auto ns = axis_values(spec.ns);
  for (const std::string& name : scenarios) {
    for (const auto& n : ns) {
      ScenarioOverrides overrides;
      overrides.n = n;
      overrides.engine = EngineMode::kSurrogate;
      surrogate_configs.push_back(registry.resolve(name, overrides));
      overrides.engine = EngineMode::kBatch;
      SurrogateValidationCell& cell = result.cells.emplace_back();
      cell.scenario = name;
      cell.config = registry.resolve(name, overrides);
      cell.dynamic =
          cell.config.schedule.enabled() || cell.config.churn.enabled();
    }
  }

  ThreadPool* pool =
      spec.threads != 0 ? &ThreadPool::sized(spec.threads) : nullptr;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    SurrogateValidationCell& cell = result.cells[i];
    TrialOptions mc_options;
    mc_options.trials = spec.trials;
    mc_options.master_seed = spec.seed;
    mc_options.pool = pool;
    const TrialSummary mc =
        run_trials(registry.make(cell.scenario, cell.config), mc_options);

    // The surrogate side: one analysis, surrogate_trials stratified
    // outcomes — recovers the analytic probability to 1/surrogate_trials
    // through the exact same TrialSummary surface the MC side uses.
    TrialOptions sur_options = mc_options;
    sur_options.trials = spec.surrogate_trials;
    const TrialSummary sur = run_trials(
        registry.make(cell.scenario, surrogate_configs[i]), sur_options);

    cell.success_mc = mc.success.estimate;
    cell.mc_low = mc.success.low;
    cell.mc_high = mc.success.high;
    cell.success_surrogate = sur.success.estimate;
    cell.abs_error = std::abs(cell.success_surrogate - cell.success_mc);
    cell.tolerance = cell.dynamic ? kSurrogateDynamicTolerance
                                  : kSurrogateStaticTolerance;
    cell.band = 0.5 * (cell.mc_high - cell.mc_low) + cell.tolerance;
    cell.pass = cell.abs_error <= cell.band;
    const auto conv_mean = [](const TrialSummary& s) {
      return s.converged != 0 ? s.convergence_rounds.mean()
                              : std::numeric_limits<double>::quiet_NaN();
    };
    cell.convergence_mc = conv_mean(mc);
    cell.convergence_surrogate = conv_mean(sur);
    cell.mc_seconds = mc.wall_seconds;
    cell.surrogate_seconds = sur.wall_seconds;
    result.all_pass = result.all_pass && cell.pass;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace flip::cli
