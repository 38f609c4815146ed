// E12 — the model's validity range: eps > n^(-1/2+eta).
//
// Section 2 assumes eps > 1/n^(1/2-eta). The sweep drives eps down through
// n^(-1/2) at fixed n and watches the guarantee degrade: near and below the
// threshold the phase-0 sample bias eps/2 sinks under its own sampling
// noise and runs converge to an arbitrary opinion.

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E12 bench_threshold",
      "Model range (Sec 2): eps > n^(-1/2+eta). Sweeping eps down through "
      "n^(-1/2):\nexpect success ~1 well above the threshold and breakdown "
      "at/below it.");

  const std::size_t n = 256;
  const double threshold = flip::theory::eps_threshold(n, 0.0);  // n^(-1/2)

  flip::TextTable table({"eps", "eps / n^(-1/2)", "above model range",
                         "trials", "success", "final correct fraction",
                         "rounds"});
  for (const double mult : {6.0, 3.0, 1.5, 1.0, 0.7}) {
    const double eps = mult * threshold;
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    flip::TrialOptions trial_options;
    trial_options.trials = 8;
    trial_options.master_seed = 0xE12;
    const flip::TrialSummary summary =
        flip::run_trials(flip::broadcast_trial_fn(scenario), trial_options);
    const flip::Params p = flip::Params::calibrated(n, eps);
    table.row()
        .cell(eps, 4)
        .cell(mult, 2)
        .cell(p.eps_above_threshold())
        .cell(summary.trials)
        .cell(summary.success.to_string())
        .cell(summary.correct_fraction.mean(), 4)
        .cell(summary.rounds.mean(), 0);
  }
  flip::cli::bench_emit(
      options, table,
      "Below the threshold (multiplier <= 1) the per-sample advantage is "
      "too small for the\nphase-0 seed bias to survive its own sampling "
      "noise: the w.h.p. guarantee disappears.");
  return 0;
}
