// E1 — Theorem 2.17 (round complexity in n).
//
// Claim: the noisy broadcast problem is solved w.h.p. in O(log n / eps^2)
// rounds. Fixing eps and sweeping n, measured rounds divided by
// log(n)/eps^2 must stay in a constant band, and the success rate must stay
// at ~1.

#include <vector>

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "util/stats.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E1 bench_broadcast_rounds",
      "Theorem 2.17: noisy broadcast in O(log n / eps^2) rounds, w.h.p.\n"
      "Expect: rounds/(log n/eps^2) ~ constant across n; success ~ 1.");

  const double eps = 0.25;
  flip::TextTable table({"n", "eps", "trials", "success", "rounds",
                         "rounds/(log n/eps^2)"});
  std::vector<double> ns;
  std::vector<double> rounds;
  for (const std::size_t n :
       {std::size_t{1024}, std::size_t{2048}, std::size_t{4096},
        std::size_t{8192}, std::size_t{16384}, std::size_t{32768}}) {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    flip::TrialOptions trial_options;
    trial_options.trials = n <= 4096 ? 12 : (n <= 16384 ? 8 : 5);
    trial_options.master_seed = 0xE1;
    const flip::TrialSummary summary =
        flip::run_trials(flip::broadcast_trial_fn(scenario), trial_options);
    const double unit = flip::theory::round_unit(n, eps);
    table.row()
        .cell(n)
        .cell(eps, 2)
        .cell(summary.trials)
        .cell(summary.success.to_string())
        .cell(summary.rounds.mean(), 0)
        .cell(summary.rounds.mean() / unit, 2);
    ns.push_back(static_cast<double>(n));
    rounds.push_back(summary.rounds.mean());
  }
  // rounds ~ log n: the log-log slope against n should be well below a
  // power law (0.1-0.2 at these sizes).
  const double slope = flip::log_log_slope(ns, rounds);
  flip::cli::bench_emit(options, table,
                        "log-log slope of rounds vs n: " +
                            flip::format_fixed(slope, 3) +
                            " (logarithmic growth: slope << 1)");
  return 0;
}
