// E11 — ablations of the design choices Section 1.6 / 2.1.1 call out.
//
// The paper argues three ingredients are essential:
//   (a) breathing — waiting out the activation phase before speaking
//       (ablation: forward immediately = the Section 1.6 strawman);
//   (b) layer growth beating noise — beta+1 > 1/eps^2 (ablation: slow
//       growth beta ~ 1/(4 eps^2), which the analysis forbids);
//   (c) majority boosting — Stage II (ablation: stop after Stage I);
// plus the schedule's constants (ablations: starved phase 0, tiny gamma,
// too few boost phases).

#include <string>

#include "cli/bench_report.hpp"
#include "workload/registry.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E11 bench_ablation",
      "Knock out each design ingredient (Sections 1.6/2.1.1) and watch "
      "which ones the guarantee\nactually leans on at this scale. Stage II "
      "is a powerful safety net: ablations that only\ndent the Stage I "
      "bias get rescued; removing the boost (or its samples) is fatal.");

  const std::size_t n = 8192;
  const double eps = 0.2;
  const std::uint64_t seed = 0xE11;

  flip::TextTable table(
      {"configuration", "trials", "success", "final correct fraction",
       "what breaks"});

  auto run_tuned = [&](const std::string& label, const flip::Tuning& tuning,
                       bool stage1_only, const std::string& what) {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.tuning = tuning;
    scenario.stage1_only = stage1_only;
    flip::TrialOptions trial_options;
    trial_options.trials = 5;
    trial_options.master_seed = seed;
    flip::RunningStats fraction;
    std::size_t successes = 0;
    for (std::size_t t = 0; t < trial_options.trials; ++t) {
      const flip::RunDetail d = flip::run_broadcast(scenario, seed, t);
      fraction.add(d.correct_fraction);
      // For stage1-only rows "success" means a usable (positive-bias)
      // population; for full rows it means unanimity on B.
      if (stage1_only ? d.final_bias > 0.0 : d.success) ++successes;
    }
    table.row()
        .cell(label)
        .cell(trial_options.trials)
        .cell(std::to_string(successes) + "/" +
              std::to_string(trial_options.trials))
        .cell(fraction.mean(), 4)
        .cell(what);
  };

  run_tuned("full protocol (control)", flip::Tuning{}, false, "nothing");

  {
    flip::Tuning slow;
    slow.unsafe_allow_slow_growth = true;
    slow.beta_mult = 0.25;  // beta+1 ~ 1/(4 eps^2) < 1/eps^2
    run_tuned("slow layer growth (beta+1 < 1/eps^2)", slow, false,
              "Sec 2.1.1: deterioration outruns growth");
  }
  {
    flip::Tuning starved;
    starved.s_mult = 0.05;  // phase 0 far too short
    run_tuned("starved phase 0 (s ~ 1/(20 eps^2))", starved, false,
              "Claim 2.2: seed bias not concentrated");
  }
  {
    flip::Tuning tiny_gamma;
    tiny_gamma.r_mult = 0.05;  // gamma ~ 2/(10 eps^2)
    run_tuned("tiny majority samples (gamma ~ 5)", tiny_gamma, false,
              "Lemma 2.11: boost per phase too weak");
  }
  {
    flip::Tuning few_phases;
    few_phases.k_extra = -20;  // clamps to a single boost phase
    run_tuned("single boost phase (k = 1)", few_phases, false,
              "Cor 2.15: bias cannot reach a constant");
  }
  {
    flip::Tuning short_final;
    short_final.k_extra = -20;
    short_final.final_mult = 0.1;  // final phase starved of samples
    run_tuned("k = 1 AND short final phase", short_final, false,
              "Lemma 2.16: unanimity needs log n/eps^2 samples");
  }
  run_tuned("no Stage II (stop after Stage I)", flip::Tuning{}, true,
            "Lemma 2.3 only gives bias ~sqrt(log n/n)");

  // No breathing at all: the Section 1.6 forward-immediately strawman.
  {
    flip::ScenarioOverrides overrides;
    overrides.n = n;
    overrides.eps = eps;
    const flip::TrialOutcome o = flip::ScenarioRegistry::instance().make(
        "baseline_forward", overrides)(seed, 99);
    table.row()
        .cell("no breathing (forward immediately)")
        .cell(std::size_t{1})
        .cell(o.success ? "1/1" : "0/1")
        .cell(o.correct_fraction, 4)
        .cell("Sec 1.6: bias decays (2 eps)^depth");
  }

  flip::cli::bench_emit(
      options, table,
      "Note: 'final correct fraction' near 0.5 means the population carries "
      "no usable signal;\nnear 1.0 with success < trials means the "
      "guarantee (not just the mean) was lost.");
  return 0;
}
