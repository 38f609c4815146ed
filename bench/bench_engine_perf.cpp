// E13 — simulator engineering throughput: classic engine vs batched fast
// path (docs/PERFORMANCE.md documents the methodology).
//
// Not a paper claim: times the substrate. Both columns run the SAME
// broadcast workload with the SAME per-trial seeds and produce identical
// results (tests/batch_engine_test.cpp holds them to bit-equality); only
// the simulation substrate differs:
//
//   classic — virtual-dispatch Engine + BreatheProtocol, fresh state per
//             trial (the PR-2-era architecture);
//   batch   — sim/batch_engine.hpp packed SoA fast path with persistent
//             per-worker scratch.
//
// The committed reference point lives in bench/results/BENCH_engine_perf
// .json; ci.sh re-runs the CI-sized grid and fails on a >20% speedup
// regression. The acceptance-sized run is
//
//   bench_engine_perf --n 100000 --trials 8 --threads 8
//
// which takes a few minutes because the classic column really is that slow.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/bench_report.hpp"
#include "sim/trial.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenarios.hpp"

namespace {

struct EngineRun {
  double trials_per_sec = 0.0;
  double mmsg_per_sec = 0.0;
  double wall_seconds = 0.0;
};

EngineRun run_one(std::size_t n, flip::EngineMode mode, std::size_t trials,
                  std::size_t threads, std::uint64_t seed) {
  flip::BroadcastScenario scenario;
  scenario.n = n;
  scenario.eps = 0.2;
  scenario.engine = mode;

  flip::TrialOptions options;
  options.trials = trials;
  options.master_seed = seed;
  options.pool = &flip::ThreadPool::sized(threads);
  const flip::TrialSummary summary =
      flip::run_trials(flip::broadcast_trial_fn(scenario), options);

  EngineRun run;
  run.wall_seconds = summary.wall_seconds;
  run.trials_per_sec = static_cast<double>(trials) / summary.wall_seconds;
  run.mmsg_per_sec = summary.messages.mean() * static_cast<double>(trials) /
                     summary.wall_seconds / 1e6;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string n_list = "1024,16384";
  std::optional<std::size_t> trials;
  std::optional<std::size_t> threads;
  std::optional<std::uint64_t> seed;
  const auto options = flip::cli::parse_bench_args(
      argc, argv,
      "E13: classic vs batched engine throughput on the broadcast workload.\n"
      "Identical per-trial results; only the substrate differs.",
      [&](flip::cli::ArgParser& parser) {
        parser.add_option("--n", "list", "comma-separated population sizes",
                          &n_list);
        parser.add_size("--trials", "trials per (n, engine) cell (default 8)",
                        &trials);
        parser.add_size("--threads", "worker threads (default: hardware)",
                        &threads);
        parser.add_uint64("--seed", "master seed (default 0x5eed)", &seed);
      });

  std::string error;
  const auto ns = flip::cli::parse_size_list(n_list, error);
  if (!ns) {
    std::cerr << "error: --n: " << error << "\n";
    return 2;
  }

  flip::cli::bench_banner(
      options, "E13 bench_engine_perf",
      "Engineering claim (docs/PERFORMANCE.md): the batched fast path "
      "sustains >= 3x the broadcast trial throughput of the PR-2-era "
      "classic engine at n = 100k, with bit-identical results.");

  flip::TextTable table({"n", "trials", "classic trials/s", "classic Mmsg/s",
                         "batch trials/s", "batch Mmsg/s", "speedup"});
  for (const std::size_t n : *ns) {
    const EngineRun classic =
        run_one(n, flip::EngineMode::kClassic, trials.value_or(8),
                threads.value_or(0), seed.value_or(0x5eedULL));
    const EngineRun batch =
        run_one(n, flip::EngineMode::kBatch, trials.value_or(8),
                threads.value_or(0), seed.value_or(0x5eedULL));
    table.row()
        .cell(n)
        .cell(trials.value_or(8))
        .cell(classic.trials_per_sec, 4)
        .cell(classic.mmsg_per_sec, 1)
        .cell(batch.trials_per_sec, 4)
        .cell(batch.mmsg_per_sec, 1)
        .cell(batch.trials_per_sec / classic.trials_per_sec, 2);
  }
  flip::cli::bench_emit(
      options, table,
      "speedup = batch / classic trials per second, measured in this "
      "process on this machine; results of the two columns are identical "
      "per (seed, trial).");
  return 0;
}
