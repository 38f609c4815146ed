// E19 — mean-field surrogate throughput: closed-form success probability
// for populations the exact engines cannot touch (n up to 10^9), in
// milliseconds per evaluation.
//
// Not a paper claim: times the substrate. The surrogate integrates the
// expected opinion/activation state round by round (a few additions per
// round, no per-agent state; the rate terms are evaluated once per
// distinct input, so a static phase pays for them once), so its cost is
// set by the ROUND BUDGET — which grows like log n through the Params
// phase arithmetic — not by n.
// The table makes that visible: a thousandfold increase in population
// moves the wall-clock by the extra phases only. Accuracy is a separate
// contract: flipsim --validate-surrogate holds the surrogate inside error
// bands of BatchEngine at overlapping n, and
// tools/check_surrogate_accuracy.py gates that in CI. This bench holds the
// SPEED half: the committed trajectory point lives in
// bench/results/BENCH_surrogate.json, whose n = 10^9 static cell must stay
// under 100 ms.
//
//   bench_surrogate --n 1000000,10000000,100000000,1000000000
//       --json bench/results/BENCH_surrogate.json
//
// Three environments per n: static (closed-form binomial tails), a burst
// schedule (expected-eps rate modifier), and churn (awake-probability
// chain + the per-phase Poisson-binomial DP — the expensive path).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "cli/args.hpp"
#include "cli/bench_report.hpp"
#include "core/environment.hpp"
#include "sim/surrogate_engine.hpp"
#include "util/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct EnvCase {
  const char* name;
  flip::EnvironmentSchedule schedule;
  flip::ChurnSpec churn;
};

}  // namespace

int main(int argc, char** argv) {
  std::string n_list = "1000000,10000000,100000000,1000000000";
  std::optional<std::size_t> evals;
  const auto options = flip::cli::parse_bench_args(
      argc, argv,
      "E19: mean-field surrogate wall-clock per closed-form evaluation vs\n"
      "population size. Cost tracks the round budget (log n), not n; the\n"
      "n = 10^9 static cell is the committed sub-100-ms trajectory point.",
      [&](flip::cli::ArgParser& parser) {
        parser.add_option("--n", "list", "comma-separated population sizes",
                          &n_list);
        parser.add_size("--evals", "evaluations per cell (default 8, timed "
                        "together and averaged)",
                        &evals);
      });

  std::string error;
  const auto ns = flip::cli::parse_size_list(n_list, error);
  if (!ns) {
    std::cerr << "error: --n: " << error << "\n";
    return 2;
  }

  flip::cli::bench_banner(
      options, "E19 bench_surrogate",
      "Engineering claim (docs/PERFORMANCE.md): the mean-field surrogate "
      "answers breathe-protocol cells in milliseconds at any n the size_t "
      "arithmetic holds, because its cost is the round budget (log n "
      "phases), not the population.");

  const EnvCase cases[] = {
      {"static", {}, {}},
      {"burst", flip::EnvironmentSchedule::parse("burst:0.08:16:0.02"), {}},
      {"churn", {}, flip::ChurnSpec::parse("0.001:0.05")},
  };

  flip::TextTable table({"n", "env", "rounds", "evals", "ms/eval",
                         "success", "correct", "conv round"});
  for (const std::size_t n : *ns) {
    for (const EnvCase& env : cases) {
      flip::SurrogateSpec spec;
      spec.n = n;
      spec.eps = 0.2;
      spec.schedule = env.schedule;
      spec.churn = env.churn;
      spec.probe_every = 64;

      const std::size_t reps = evals.value_or(8);
      flip::SurrogateResult result;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < reps; ++i) {
        result = flip::run_surrogate(spec);
      }
      const double ms_per_eval =
          seconds_since(start) * 1000.0 / static_cast<double>(reps);
      table.row()
          .cell(n)
          .cell(env.name)
          .cell(static_cast<std::size_t>(result.rounds))
          .cell(reps)
          .cell(ms_per_eval, 3)
          .cell(result.success_probability, 4)
          .cell(result.correct_fraction, 4)
          // "-" when the expected trajectory never crosses 99% activation
          // (NaN), matching the sweep table's placeholder convention.
          .cell(std::isfinite(result.convergence_round)
                    ? flip::format_fixed(result.convergence_round, 0)
                    : std::string("-"));
    }
  }
  flip::cli::bench_emit(
      options, table,
      "ms/eval = wall-clock of `evals` back-to-back run_surrogate calls "
      "divided by evals, measured in this process on this machine. The "
      "exact engines' cost at these n is hours-to-days per TRIAL; the "
      "surrogate's accuracy against them is gated separately by "
      "flipsim --validate-surrogate.");
  return 0;
}
