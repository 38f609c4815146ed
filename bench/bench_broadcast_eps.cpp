// E2 — Theorem 2.17 (round complexity in eps).
//
// Claim: rounds scale as 1/eps^2. Fixing n and sweeping eps, measured
// rounds * eps^2 must stay ~constant and the log-log slope of rounds
// against eps must be ~ -2.

#include <vector>

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "util/stats.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E2 bench_broadcast_eps",
      "Theorem 2.17: rounds ~ 1/eps^2 at fixed n.\n"
      "Expect: rounds*eps^2 ~ constant; log-log slope vs eps ~ -2; "
      "success ~ 1 throughout.");

  const std::size_t n = 8192;
  flip::TextTable table({"eps", "n", "trials", "success", "rounds",
                         "rounds*eps^2", "messages*eps^2/n"});
  std::vector<double> epses;
  std::vector<double> rounds;
  for (const double eps : {0.35, 0.3, 0.25, 0.2, 0.15, 0.125}) {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    flip::TrialOptions trial_options;
    trial_options.trials = eps >= 0.2 ? 8 : 5;
    trial_options.master_seed = 0xE2;
    const flip::TrialSummary summary =
        flip::run_trials(flip::broadcast_trial_fn(scenario), trial_options);
    table.row()
        .cell(eps, 3)
        .cell(n)
        .cell(summary.trials)
        .cell(summary.success.to_string())
        .cell(summary.rounds.mean(), 0)
        .cell(summary.rounds.mean() * eps * eps, 1)
        .cell(summary.messages.mean() * eps * eps / static_cast<double>(n),
              1);
    epses.push_back(eps);
    rounds.push_back(summary.rounds.mean());
  }
  const flip::PowerLawFit fit = flip::fit_power_law(epses, rounds);
  flip::cli::bench_emit(
      options, table,
      "power-law fit: rounds ~ " + flip::format_fixed(fit.prefactor, 1) +
          " * eps^" + flip::format_fixed(fit.exponent, 2) +
          "  (theory: -2; R^2 = " + flip::format_fixed(fit.r_squared, 4) + ")");
  return 0;
}
