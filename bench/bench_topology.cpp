// E20 — topology route-path cost: per-trial wall-clock of the broadcast
// protocol across interaction-graph families at fixed n.
//
// Not a paper claim: times the substrate. The complete graph rides the
// zero-cost identity path; every sparse family routes through
// GraphRecipient, the rewired kinds paying an extra CounterRng stream per
// rewired edge lookup and the dynamic kind re-deriving its graph key every
// round.
// This harness makes that price visible next to what the graph does to the
// protocol itself (success / rounds / messages at the same eps), so a
// reader can separate substrate cost from protocol behavior:
//
//   bench_topology --n 4096 --trials 8
//
// Results are bit-identical per (seed, trial, topology) across shard
// counts and substrates (tests/registry_test.cpp holds the engines to
// that); this harness only measures the batch substrate.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/bench_report.hpp"
#include "core/topology.hpp"
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
  std::string n_list = "4096";
  std::string topology_list = "complete,ring:8,grid:2,smallworld:8:0.1,dynamic:8:0.1";
  std::optional<std::size_t> trials;
  std::optional<std::uint64_t> seed;
  flip::cli::BenchOptions options;

  flip::cli::ArgParser parser(
      "bench_topology",
      "E20: broadcast wall-clock and outcome across interaction-graph\n"
      "families at fixed n. The complete graph is the identity fast path;\n"
      "sparse families route through the scalar GraphRecipient.");
  parser.add_option("--n", "list", "comma-separated population sizes",
                    &n_list);
  parser.add_option("--topologies", "list",
                    "comma-separated topology specs (see flipsim --topology)",
                    &topology_list);
  parser.add_size("--trials", "trials per (n, topology) cell (default 4)",
                  &trials);
  parser.add_uint64("--seed", "master seed (default 0x5eed)", &seed);
  parser.add_flag("--csv", "emit table rows as CSV instead of rendering",
                  &options.csv);
  parser.add_option("--json", "path",
                    "also write the flip-bench-v1 JSON report to <path>",
                    &options.json_path);
  if (!parser.parse(argc, argv)) {
    if (parser.help_requested()) {
      std::cout << parser.usage();
      return 0;
    }
    std::cerr << "error: " << parser.error() << "\n\n" << parser.usage();
    return 2;
  }

  std::string error;
  const auto ns = flip::cli::parse_size_list(n_list, error);
  if (!ns || ns->empty()) {
    std::cerr << "error: --n: " << (error.empty() ? "empty list" : error)
              << "\n";
    return 2;
  }
  std::vector<flip::TopologySpec> topologies;
  {
    std::size_t start = 0;
    while (start <= topology_list.size()) {
      const std::size_t comma = topology_list.find(',', start);
      const std::string piece = topology_list.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      try {
        topologies.push_back(flip::TopologySpec::parse(piece));
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: --topologies: " << e.what() << "\n";
        return 2;
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  flip::cli::bench_banner(
      options, "E20 bench_topology",
      "Engineering claim (docs/PERFORMANCE.md): the complete graph keeps "
      "the historical identity route path; sparse families pay the "
      "GraphRecipient scalar route, priced here next to the protocol-level "
      "effect of the graph.");

  flip::TextTable table({"n", "topology", "trials", "s/trial", "vs_complete",
                         "success", "rounds", "messages"});
  for (const std::size_t n : *ns) {
    double complete_seconds = 0.0;
    for (const flip::TopologySpec& topology : topologies) {
      flip::BroadcastScenario scenario;
      scenario.n = n;
      scenario.eps = 0.2;
      scenario.engine = flip::EngineMode::kBatch;
      scenario.topology = topology;
      try {
        (void)flip::ResolvedTopology::resolve(topology, n);
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }

      const std::size_t reps = trials.value_or(4);
      std::size_t successes = 0;
      double rounds = 0.0;
      double messages = 0.0;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t t = 0; t < reps; ++t) {
        const flip::TrialOutcome out = flip::to_outcome(
            flip::run_broadcast(scenario, seed.value_or(0x5eedULL), t));
        successes += out.success ? 1 : 0;
        rounds += static_cast<double>(out.rounds);
        messages += static_cast<double>(out.messages);
      }
      const double per_trial =
          seconds_since(start) / static_cast<double>(reps);
      if (complete_seconds == 0.0) complete_seconds = per_trial;
      table.row()
          .cell(n)
          .cell(topology.describe())
          .cell(reps)
          .cell(per_trial, 4)
          .cell(per_trial / complete_seconds, 2)
          .cell(successes)
          .cell(rounds / static_cast<double>(reps), 1)
          .cell(messages / static_cast<double>(reps), 0);
    }
  }
  flip::cli::bench_emit(
      options, table,
      "vs_complete = (s/trial at this topology) / (s/trial at the row "
      "group's first topology), measured in this process on this machine. "
      "success/rounds/messages describe the protocol under the graph, not "
      "the substrate.");
  return 0;
}
