// E17 — intra-trial shard scaling: one big broadcast trial split across
// shards (docs/PERFORMANCE.md documents the methodology).
//
// Not a paper claim: times the substrate. Every row runs the SAME
// (seed, trial) workload and produces bit-identical results for every
// shard count (tests/batch_engine_test.cpp holds the engine to that);
// only the round-phase partitioning differs. Sharding targets the regime
// Monte-Carlo trial parallelism cannot reach — ONE trial at n = 10^6..10^7
// agents, where the paper's asymptotics live — so the headline
// configuration is a single trial:
//
//   bench_shards --n 1000000 --shards 1,2,4,8 --trials 1
//
// The committed trajectory point lives in bench/results/BENCH_shards.json;
// tools/check_engine_perf.py re-runs a CI-sized grid and gates the
// 8-shard point (speedup on machines with the cores to show it, bounded
// overhead otherwise). The `cores` column records what the measuring
// machine could physically deliver — shard speedups are meaningless
// without it.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/bench_report.hpp"
#include "util/table.hpp"
#include "workload/scenarios.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string n_list = "100000";
  std::string shard_list = "1,2,4,8";
  std::optional<std::size_t> trials;
  std::optional<std::uint64_t> seed;
  const auto options = flip::cli::parse_bench_args(
      argc, argv,
      "E17: single-trial broadcast wall-clock vs intra-trial shard count.\n"
      "Bit-identical results per (seed, trial) for every shard count; only\n"
      "the round-phase partitioning differs.",
      [&](flip::cli::ArgParser& parser) {
        parser.add_option("--n", "list", "comma-separated population sizes",
                          &n_list);
        parser.add_option("--shards", "list", "comma-separated shard counts",
                          &shard_list);
        parser.add_size("--trials", "trials per (n, shards) cell (default 1)",
                        &trials);
        parser.add_uint64("--seed", "master seed (default 0x5eed)", &seed);
      });

  std::string error;
  const auto ns = flip::cli::parse_size_list(n_list, error);
  if (!ns) {
    std::cerr << "error: --n: " << error << "\n";
    return 2;
  }
  const auto shard_counts = flip::cli::parse_size_list(shard_list, error);
  if (!shard_counts) {
    std::cerr << "error: --shards: " << error << "\n";
    return 2;
  }

  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  flip::cli::bench_banner(
      options, "E17 bench_shards",
      "Engineering claim (docs/PERFORMANCE.md): the counter-keyed "
      "determinism contract makes one trial's rounds shard-parallel with "
      "bit-identical results; wall-clock scales with shard count up to the "
      "machine's cores.");

  flip::TextTable table({"n", "shards", "cores", "trials", "s/trial",
                         "speedup"});
  for (const std::size_t n : *ns) {
    double base_seconds = 0.0;
    for (const std::size_t shards : *shard_counts) {
      flip::BroadcastScenario scenario;
      scenario.n = n;
      scenario.eps = 0.2;
      scenario.engine = flip::EngineMode::kBatch;
      scenario.shards = shards;

      const std::size_t reps = trials.value_or(1);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t t = 0; t < reps; ++t) {
        (void)flip::run_broadcast(scenario, seed.value_or(0x5eedULL), t);
      }
      const double per_trial =
          seconds_since(start) / static_cast<double>(reps);
      if (base_seconds == 0.0) base_seconds = per_trial;
      table.row()
          .cell(n)
          .cell(shards)
          .cell(cores)
          .cell(reps)
          .cell(per_trial, 3)
          .cell(base_seconds / per_trial, 2);
    }
  }
  flip::cli::bench_emit(
      options, table,
      "speedup = (s/trial at the row's first shard count) / (s/trial at "
      "this shard count), measured in this process on this machine; "
      "results are bit-identical across rows of the same n.");
  return 0;
}
