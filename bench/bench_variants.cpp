// E16 — Remarks 2.1 & 2.10 and the "at most 1/2 - eps" noise clause.
//
// Remark 2.1: in the fully-synchronous setting, adopting the FIRST message
// of the activation phase is equivalent to the paper's uniformly-random
// choice. Remark 2.10: likewise the PREFIX of the first m_i/2 Stage II
// samples is equivalent to a uniformly random subset. And Section 1.3.2
// only promises flips with probability AT MOST 1/2 - eps: a channel whose
// per-message flip probability is drawn uniformly from [0, 1/2 - eps]
// (milder on average) must also preserve the guarantee.

#include <string>

#include "cli/bench_report.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E16 bench_variants",
      "Remarks 2.1/2.10 rule variants and the 'at most 1/2 - eps' noise "
      "clause.\nExpect: every variant matches the paper's rule — same "
      "success, same rounds, similar final state.");

  const std::size_t n = 4096;
  const double eps = 0.2;

  flip::TextTable table({"variant", "trials", "success", "rounds",
                         "final correct fraction"});

  auto add_row = [&](const std::string& label,
                     const flip::BroadcastScenario& scenario) {
    flip::TrialOptions trial_options;
    trial_options.trials = 6;
    trial_options.master_seed = 0xE16;
    const flip::TrialSummary summary =
        flip::run_trials(flip::broadcast_trial_fn(scenario), trial_options);
    table.row()
        .cell(label)
        .cell(summary.trials)
        .cell(summary.success.to_string())
        .cell(summary.rounds.mean(), 0)
        .cell(summary.correct_fraction.mean(), 4);
  };

  flip::BroadcastScenario base;
  base.n = n;
  base.eps = eps;
  add_row("paper rules (uniform msg, uniform subset)", base);

  flip::BroadcastScenario first = base;
  first.stage1_pick = flip::Stage1Pick::kFirstMessage;
  add_row("Remark 2.1: first-message rule", first);

  flip::BroadcastScenario prefix = base;
  prefix.stage2_subset = flip::Stage2Subset::kPrefixSubset;
  add_row("Remark 2.10: prefix-subset rule", prefix);

  flip::BroadcastScenario both = base;
  both.stage1_pick = flip::Stage1Pick::kFirstMessage;
  both.stage2_subset = flip::Stage2Subset::kPrefixSubset;
  add_row("both variants", both);

  flip::BroadcastScenario hetero = base;
  hetero.heterogeneous_noise = true;
  add_row("heterogeneous noise (flip prob U[0, 1/2-eps])", hetero);

  flip::cli::bench_emit(
      options, table,
      "The first four rows exercise the remark equivalences (the random "
      "choices exist only to make\ndecisions order-invariant for Section "
      "3); the last row checks nothing relies on the noise\nbeing exactly "
      "1/2 - eps.");
  return 0;
}
