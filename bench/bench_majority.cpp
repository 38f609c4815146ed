// E8 — Corollary 2.18 (noisy majority-consensus).
//
// Claim: majority-consensus is solvable in O(log n/eps^2) rounds for any
// initial set |A| = Omega(log n/eps^2) with majority-bias
// Omega(sqrt(log n/|A|)). The sweep covers both thresholds, including the
// below-threshold region where the guarantee (correctly) disappears.

#include <algorithm>

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E8 bench_majority",
      "Corollary 2.18: majority-consensus for |A| = Omega(log n/eps^2), "
      "bias = Omega(sqrt(log n/|A|)),\nin O(log n/eps^2) rounds. Expect "
      "success ~1 above both thresholds, degradation below.");

  const std::size_t n = 8192;
  const double eps = 0.25;
  const double size_unit = flip::theory::majority_min_initial_set(n, eps);

  flip::TextTable table({"|A|", "|A| / (log n/eps^2)", "majority-bias",
                         "bias / sqrt(log n/|A|)", "trials", "success",
                         "rounds"});
  for (const std::size_t a : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    const double bias_unit = flip::theory::majority_min_bias(n, a);
    // The smallest multiple is clamped to a ONE-AGENT majority (bias 1/|A|):
    // the absolute information floor of the problem.
    for (double bias_mult : {3.0, 1.0, 0.25, 0.0}) {
      if (bias_mult == 0.0) {
        bias_mult = (1.0 / static_cast<double>(a)) / bias_unit;
      }
      const double bias =
          std::clamp(bias_mult * bias_unit, 1.0 / static_cast<double>(a),
                     0.5);
      flip::MajorityScenario scenario;
      scenario.n = n;
      scenario.eps = eps;
      scenario.initial_set = a;
      scenario.majority_bias = bias;
      flip::TrialOptions trial_options;
      trial_options.trials = 8;
      trial_options.master_seed = 0xE8;
      const flip::TrialSummary summary =
          flip::run_trials(flip::majority_trial_fn(scenario), trial_options);
      table.row()
          .cell(a)
          .cell(static_cast<double>(a) / size_unit, 2)
          .cell(bias, 4)
          .cell(bias / bias_unit, 2)
          .cell(summary.trials)
          .cell(summary.success.to_string())
          .cell(summary.rounds.mean(), 0);
    }
  }
  flip::cli::bench_emit(
      options, table,
      "Rows with bias multiple >= 1 are inside Corollary 2.18's guarantee "
      "and must succeed.\nThe calibrated protocol also survives below the "
      "(worst-case) threshold; the guarantee\ntruly dissolves at the "
      "one-agent-majority floor rows.");
  return 0;
}
