#pragma once
// Sweep specification and runner: expands a (scenario, n, eps, channel)
// grid against the workload registry, runs each point through the parallel
// Monte-Carlo harness, and keeps wall-clock per point so the reporting
// layer can emit the perf trajectory alongside the protocol statistics.
// The registry checks every grid point; this layer adds only its own
// preconditions (trials, grid size, first_cell) and the host's --threads
// bound.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/trial.hpp"
#include "workload/registry.hpp"

namespace flip::cli {

/// The grid to run. Empty axis = the scenario's registered default.
struct SweepSpec {
  std::string scenario;
  std::vector<std::size_t> ns;
  std::vector<double> epss;
  std::vector<std::string> channels;
  std::size_t trials = 32;
  std::uint64_t seed = 0x5eedULL;
  /// Threads, shard phases included. 0 = the shared pool (hardware).
  std::size_t threads = 0;
  /// Substrate every grid point runs on. Identical results either way;
  /// kClassic is the reference Engine for A/B timing.
  EngineMode engine = EngineMode::kBatch;
  /// Intra-trial shards per execution (batch breathe scenarios), run on
  /// the sweep's threads. Results are bit-identical for every value.
  std::size_t shards = 1;
  /// Dynamic-environment overrides (flipsim --schedule / --churn). Unset
  /// means "use the scenario's registered default" — which is the static
  /// environment for classic entries and a preset for the dynamic ones.
  std::optional<EnvironmentSchedule> schedule;
  std::optional<ChurnSpec> churn;
  /// Interaction-graph override (flipsim --topology). Unset means "use the
  /// scenario's registered default" — complete for the classic entries, a
  /// preset sparse family for the topology entries.
  std::optional<TopologySpec> topology;
  /// First cell (index into expand_grid order) to run: cells before it are
  /// skipped. This is the checkpoint/resume seam — under the counter-keyed
  /// RNG a cell is a pure key range, so a resumed run's cells are
  /// bit-identical to the uninterrupted run's.
  std::size_t first_cell = 0;
  /// When false, run_sweep does not accumulate SweepPoints in the returned
  /// result — the per-point sink is the only output. The service sets this
  /// for streamed requests so a huge grid runs in O(1) result memory.
  bool collect_points = true;
};

/// One grid point's resolved parameters and aggregated results. Per-point
/// wall-clock lives in summary.wall_seconds.
struct SweepPoint {
  ScenarioConfig config;
  TrialSummary summary;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<SweepPoint> points;
  double wall_seconds = 0.0;  ///< whole sweep
};

/// Per-cell streaming sink: invoked after each grid cell completes, in
/// execution order, with the cell's index in the full expanded grid. This
/// is the shared seam under flipsim's incremental --csv/--jsonl emission
/// and the sweep service's per-cell response frames. An exception thrown
/// from the sink aborts the sweep (it propagates out of run_sweep) — the
/// service uses this to stop a sweep whose client hung up.
using SweepPointSink =
    std::function<void(std::size_t cell_index, const SweepPoint& point)>;

/// Expands the grid (cross product, axis order n -> eps -> channel) and
/// runs every point from spec.first_cell on. The grid is expanded, and so
/// checked, before anything runs, so a typo fails fast instead of after
/// minutes of simulation. Throws what expand_grid throws.
SweepResult run_sweep(const SweepSpec& spec,
                      const SweepPointSink& on_point = {});

/// The most cells one sweep grid may have, counted over the deduplicated
/// axes. A resolved cell takes about 150 bytes, so the largest grid costs
/// about 10 MB each time it is built (at the daemon's ingest, then in
/// run_sweep). A larger sweep is several requests.
inline constexpr std::size_t kMaxGridCells = 65536;

/// The resolved grid run_sweep would execute, in execution order. Every
/// point goes through ScenarioRegistry::resolve, the one place the
/// simulator states each entry's domain (n, eps, channel, engine, shards,
/// topology). Throws std::invalid_argument on zero trials, on a grid of
/// more than kMaxGridCells (before any cell is built), on the first point
/// resolve rejects, or on a first_cell past the grid.
std::vector<ScenarioConfig> expand_grid(const SweepSpec& spec);

/// Validates a --threads request against the detected hardware concurrency
/// (the one request check that depends on the host, not the grid): nullopt
/// when acceptable, the error text without the "error: " prefix otherwise.
/// `hardware` == 0 means the runtime cannot tell (std::thread::
/// hardware_concurrency is allowed to return 0) — that falls back to a
/// floor of one worker, so any positive request is accepted rather than
/// every request being rejected against an upper bound of 0.
std::optional<std::string> validate_threads(std::size_t threads,
                                            std::size_t hardware);

// --- surrogate validation harness (flipsim --validate-surrogate) --------
//
// Runs surrogate and BatchEngine side by side over the supported registry
// entries at overlapping n and checks |success_hat - success_mc| against a
// per-cell error band. The band is the Monte-Carlo Wilson-interval
// halfwidth (sampling noise the exact side cannot beat) PLUS a documented
// model tolerance for the surrogate's approximations (agent independence,
// expectation-of-nonlinear-function gaps):

/// Static environments: the mean-field model's finite-n correlation error,
/// measured well under 0.05 at n >= 1k on the supported entries; 0.10
/// leaves headroom without masking a broken recurrence (a wrong stage
/// model is off by ~0.5, not 0.1).
inline constexpr double kSurrogateStaticTolerance = 0.10;
/// Dynamic environments (schedule / churn / near-threshold ramps): the
/// burst lottery and the awake chain linearize harder nonlinearities, and
/// near-threshold scenarios sit on the steep part of the success curve
/// where small rate errors move the outcome most.
inline constexpr double kSurrogateDynamicTolerance = 0.16;

/// What to validate. Empty `scenarios` = every registry entry with
/// supports_surrogate().
struct SurrogateValidationSpec {
  std::vector<std::string> scenarios;
  /// Sizes to validate at, deduplicated like a sweep grid's axes (so a
  /// repeated n runs once; empty = each scenario's registered n).
  std::vector<std::size_t> ns = {1024};
  /// Monte-Carlo trials per cell (the expensive side).
  std::size_t trials = 32;
  /// Stratified surrogate trials per cell: the van der Corput mapping
  /// recovers the analytic probability to within 1/surrogate_trials, so
  /// 4096 contributes < 2.5e-4 quantization to the measured error.
  std::size_t surrogate_trials = 4096;
  std::uint64_t seed = 0x5eedULL;
  std::size_t threads = 0;
};

/// One (scenario, n) comparison.
struct SurrogateValidationCell {
  std::string scenario;
  ScenarioConfig config;  ///< the resolved (batch-side) grid point
  bool dynamic = false;   ///< schedule or churn enabled -> dynamic tolerance
  double success_mc = 0.0;
  double mc_low = 0.0;    ///< Wilson interval of the MC estimate
  double mc_high = 0.0;
  double success_surrogate = 0.0;
  double abs_error = 0.0;  ///< |success_surrogate - success_mc|
  double tolerance = 0.0;  ///< the model tolerance constant applied
  double band = 0.0;       ///< Wilson halfwidth + tolerance
  bool pass = false;       ///< abs_error <= band
  /// Convergence-round estimates (NaN when a side records none). Reported
  /// for inspection; the pass gate is the success band only — convergence
  /// deltas are probe-grid-quantized and scenario-dependent.
  double convergence_mc = 0.0;
  double convergence_surrogate = 0.0;
  double mc_seconds = 0.0;
  double surrogate_seconds = 0.0;
};

struct SurrogateValidationResult {
  SurrogateValidationSpec spec;
  std::vector<SurrogateValidationCell> cells;
  bool all_pass = true;
  double wall_seconds = 0.0;
};

/// Runs the harness. Every (scenario, n) cell is resolved on the batch and
/// the surrogate engine before the first trial; one that does not resolve
/// throws ScenarioRegistry::resolve's std::invalid_argument.
SurrogateValidationResult run_surrogate_validation(
    const SurrogateValidationSpec& spec);

}  // namespace flip::cli
