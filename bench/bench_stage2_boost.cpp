// E7 — Lemma 2.14, Corollary 2.15, Lemma 2.16 (Stage II boosting).
//
// Lemma 2.14: one boost phase grows the bias from delta to at least
// min{1.7 delta, 1/800} w.h.p. (given delta = Omega(sqrt(log n/n))).
// Corollary 2.15 / Lemma 2.16: after O(log n) phases plus the long final
// phase everyone is correct.
//
// Runs Stage II in isolation from seeded initial biases and reports the
// per-phase bias trajectory and final outcome.

#include <string>

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "util/stats.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E7 bench_stage2_boost",
      "Lemma 2.14: per boost phase, bias delta -> min{1.7 delta, 1/800} "
      "w.h.p.;\nCor 2.15 + Lemma 2.16: all correct at Stage II's end.");

  const std::size_t n = 16384;
  const double eps = 0.25;

  // Trajectory detail for one seeded bias near the Stage I output scale.
  {
    flip::BoostScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.initial_bias = 2.0 * flip::theory::stage1_output_bias_unit(n);
    const flip::RunDetail detail = flip::run_boost(scenario, 0xE7, 0);
    const flip::Params params = flip::Params::calibrated(n, eps);
    const std::vector<double> predicted = flip::theory::stage2_bias_trajectory(
        n, eps, scenario.initial_bias, params.stage2().gamma,
        params.stage2().m, params.stage2().k);
    flip::TextTable table({"boost phase", "bias after phase",
                           "mean-field prediction",
                           "Lemma 2.14 floor (from previous)",
                           "successful agents"});
    double prev = scenario.initial_bias;
    for (const auto& s : detail.stage2) {
      const double floor = flip::theory::lemma_2_14_boost(prev);
      const double mean_field =
          s.phase + 1 < predicted.size() ? predicted[s.phase + 1] : 0.5;
      table.row()
          .cell("phase " + std::to_string(s.phase))
          .cell(s.bias, 5)
          .cell(mean_field, 5)
          .cell(floor, 5)
          .cell(s.successful);
      prev = s.bias;
    }
    flip::cli::bench_emit(
        options, table,
        std::string("Seeded bias ") +
            flip::format_fixed(scenario.initial_bias, 5) + "; run ended " +
            (detail.success ? "all-correct" : "NOT unanimous") +
            ". The floor column uses the measured previous-phase bias.");
  }

  // Success sweep over seeded initial biases, down through the guarantee
  // threshold sqrt(log n / n).
  flip::TextTable sweep({"initial bias", "x sqrt(log n/n)", "trials",
                         "success", "final correct fraction"});
  const double unit = flip::theory::stage1_output_bias_unit(n);
  // Sweep down to biases worth only a handful of agents: the breakdown sits
  // near the 1/sqrt(n) information floor, below the theory's threshold.
  for (const double mult : {8.0, 2.0, 1.0, 0.25, 0.1, 0.03}) {
    flip::BoostScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.initial_bias = mult * unit;
    flip::TrialOptions trial_options;
    trial_options.trials = 6;
    trial_options.master_seed = 0xE7;
    const flip::TrialSummary summary = flip::run_trials(
        [scenario](std::uint64_t seed, std::size_t trial) {
          return flip::to_outcome(flip::run_boost(scenario, seed, trial));
        },
        trial_options);
    sweep.row()
        .cell(scenario.initial_bias, 5)
        .cell(mult, 2)
        .cell(summary.trials)
        .cell(summary.success.to_string())
        .cell(summary.correct_fraction.mean(), 4);
  }
  flip::cli::bench_emit(
      options, sweep,
      "Lemma 2.14 promises reliability above ~sqrt(log n/n) (multiple >= 1) "
      "— those rows must be ~1.\nThe calibrated protocol keeps working some "
      "way below the threshold (the bound is worst-case);\nthe guarantee "
      "finally dissolves near the 1/(2 sqrt n) information floor (smallest "
      "multiples).");
  return 0;
}
