// E21 — sweep service residency: per-request wall-clock of a warm resident
// flipsim daemon (net/service.hpp) vs a cold one-shot CLI process, on a
// deliberately tiny sweep so fixed costs dominate.
//
// Not a paper claim: times the harness. A cold flipsim invocation pays
// process start-up, registry construction, ThreadPool spawn, and the
// first-trial allocation ramp on every sweep; the daemon pays them once
// and keeps the per-worker TrialArena scratch warm across requests
// (sim/trial_arena.hpp), so a warm request's cost approaches the pure
// simulation time. The committed trajectory point lives in
// bench/results/BENCH_service.json; the warm path must stay >= 5x below
// the cold CLI on the small request.
//
//   bench_service --json bench/results/BENCH_service.json
//   bench_service --flipsim build/tools/flipsim --requests 32
//
// Results are identical on both paths (the served-vs-one-shot differential
// test in tests/service_test.cpp holds that byte-for-byte); this bench
// holds the latency half.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "cli/args.hpp"
#include "cli/bench_report.hpp"
#include "cli/wire.hpp"
#include "net/service.hpp"
#include "util/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The sibling flipsim binary: bench binaries land in <build>/bench/, the
/// CLI in <build>/tools/.
std::string default_flipsim_path(const char* argv0) {
  const std::string self(argv0);
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : self.substr(0, slash);
  return dir + "/../tools/flipsim";
}

}  // namespace

int main(int argc, char** argv) {
  std::string flipsim_path;
  std::optional<std::size_t> requests;
  std::optional<std::size_t> cold_runs;
  std::optional<std::size_t> n;
  std::optional<std::size_t> trials;
  const auto options = flip::cli::parse_bench_args(
      argc, argv,
      "E21: warm resident-daemon request latency vs cold one-shot CLI\n"
      "latency on a tiny sweep (fixed costs dominate). The warm path must\n"
      "stay >= 5x below the cold CLI.",
      [&](flip::cli::ArgParser& parser) {
        parser.add_option("--flipsim", "path",
                          "flipsim binary for the cold runs (default: the "
                          "sibling build/tools/flipsim)",
                          &flipsim_path);
        parser.add_size("--requests", "warm requests to time (default 16)",
                        &requests);
        parser.add_size("--cold-runs",
                        "cold CLI invocations to time (default 5)",
                        &cold_runs);
        parser.add_size("--n", "population size per request (default 16)",
                        &n);
        parser.add_size("--trials", "trials per request (default 1)",
                        &trials);
      });
  if (flipsim_path.empty()) flipsim_path = default_flipsim_path(argv[0]);

  flip::cli::bench_banner(
      options, "E21 bench_service",
      "Engineering claim (docs/SERVICE.md): a resident sweep daemon "
      "answers repeated small requests >= 5x faster than cold one-shot "
      "CLI invocations, because process start-up, registry construction, "
      "pool spawn, and the first-trial allocation ramp are paid once "
      "instead of per sweep.");

  // The request both paths run: small enough that fixed costs dominate,
  // real enough to exercise the full sweep pipeline.
  const std::size_t req_n = n.value_or(16);
  const std::uint32_t req_trials =
      static_cast<std::uint32_t>(trials.value_or(1));
  flip::cli::SweepRequest request;
  request.scenario = "broadcast_small";
  request.ns = std::to_string(req_n);
  request.trials = req_trials;

  // --- warm: resident server, per-request connections -------------------
  flip::net::SweepServer server;
  std::string error;
  if (!server.start(error)) {
    std::cerr << "error: server start: " << error << "\n";
    return 1;
  }
  flip::net::SweepClient client(server.port());
  // One untimed request absorbs the pool spawn and arena warm-up — the
  // daemon's steady state is what repeated clients see.
  (void)client.run_sweep(request);

  const std::size_t warm_reps = requests.value_or(16);
  const auto warm_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm_reps; ++i) {
    (void)client.run_sweep(request);
  }
  const double warm_seconds = seconds_since(warm_start);
  const double warm_ms = warm_seconds * 1000.0 / static_cast<double>(warm_reps);
  server.stop();

  // --- cold: one process per sweep ---------------------------------------
  const std::string command =
      flipsim_path + " --scenario broadcast_small --n " +
      std::to_string(req_n) + " --trials " + std::to_string(req_trials) +
      " --quiet >/dev/null 2>&1";
  if (std::system(command.c_str()) != 0) {  // untimed sanity run
    std::cerr << "error: cold flipsim run failed: " << command << "\n"
              << "(point --flipsim at the built binary)\n";
    return 1;
  }
  const std::size_t cold_reps = cold_runs.value_or(5);
  const auto cold_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cold_reps; ++i) {
    if (std::system(command.c_str()) != 0) {
      std::cerr << "error: cold flipsim run failed mid-series\n";
      return 1;
    }
  }
  const double cold_seconds = seconds_since(cold_start);
  const double cold_ms = cold_seconds * 1000.0 / static_cast<double>(cold_reps);

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  flip::TextTable table(
      {"mode", "runs", "ms/request", "req/s", "cold/warm"});
  table.row()
      .cell("cold_cli")
      .cell(cold_reps)
      .cell(cold_ms, 3)
      .cell(cold_ms > 0.0 ? 1000.0 / cold_ms : 0.0, 1)
      .cell(std::string("-"));
  table.row()
      .cell("warm_server")
      .cell(warm_reps)
      .cell(warm_ms, 3)
      .cell(warm_ms > 0.0 ? 1000.0 / warm_ms : 0.0, 1)
      .cell(speedup, 2);
  flip::cli::bench_emit(
      options, table,
      "ms/request = wall-clock per sweep of the same tiny request "
      "(broadcast_small, n=" + std::to_string(req_n) + ", " +
          std::to_string(req_trials) +
          " trial(s)): cold_cli forks a fresh flipsim per sweep, "
          "warm_server reuses one resident daemon over loopback. cold/warm "
          "is the residency speedup; the committed point must stay >= 5.");
  return 0;
}
