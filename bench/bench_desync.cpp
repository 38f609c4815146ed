// E10 — Theorem 3.1 (removing the global clock).
//
// Claim: with clocks up to D apart, the modified schedule solves noisy
// broadcast in the synchronous round count plus an additive O(D log n)
// (O(log^2 n) once the Section 3.2 pre-phase bounds D by 2 log n), with
// the SAME message complexity. The sweep varies D and the attribution rule
// and includes the full clock-sync pipeline.

#include <cmath>
#include <string>

#include "cli/bench_report.hpp"
#include "core/params.hpp"
#include "core/theory.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E10 bench_desync",
      "Theorem 3.1: no global clock => +O(D * #phases) rounds, unchanged "
      "message complexity,\nsame success guarantee. D rows sweep the skew; "
      "the last row runs the Section 3.2 pre-phase.");

  const std::size_t n = 4096;
  const double eps = 0.25;
  const flip::Params params = flip::Params::calibrated(n, eps);
  const double sync_rounds = static_cast<double>(params.total_rounds());
  const auto log_n = static_cast<flip::Round>(
      std::ceil(std::log(static_cast<double>(n))));

  flip::TextTable table({"D (skew)", "attribution", "trials", "success",
                         "rounds", "extra rounds", "theory D*(P+1)",
                         "messages/sync-messages"});

  double sync_messages = 0.0;

  auto add_row = [&](flip::Round skew, flip::Attribution attribution,
                     bool clock_sync, const std::string& label) {
    flip::DesyncScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.max_skew = skew;
    scenario.attribution = attribution;
    scenario.use_clock_sync = clock_sync;
    flip::TrialOptions trial_options;
    trial_options.trials = 6;
    trial_options.master_seed = 0xE10;
    const flip::TrialSummary summary =
        flip::run_trials(flip::desync_trial_fn(scenario), trial_options);
    // Phase count for the theory column (from one detailed run).
    const flip::RunDetail detail = flip::run_desync(scenario, 0xE10, 0);
    if (sync_messages == 0.0) sync_messages = summary.messages.mean();
    table.row()
        .cell(label)
        .cell(attribution == flip::Attribution::kOracle ? "oracle" : "local")
        .cell(summary.trials)
        .cell(summary.success.to_string())
        .cell(summary.rounds.mean(), 0)
        .cell(summary.rounds.mean() - sync_rounds, 0)
        .cell(static_cast<double>(detail.desync_overhead), 0)
        .cell(summary.messages.mean() / sync_messages, 3);
  };

  add_row(0, flip::Attribution::kLocalWindow, false, "0 (sync)");
  add_row(log_n, flip::Attribution::kLocalWindow, false, "log n");
  add_row(2 * log_n, flip::Attribution::kLocalWindow, false, "2 log n");
  add_row(2 * log_n, flip::Attribution::kOracle, false, "2 log n");
  add_row(8 * log_n, flip::Attribution::kLocalWindow, false, "8 log n");
  add_row(0, flip::Attribution::kLocalWindow, true, "clock-sync (Sec 3.2)");

  flip::cli::bench_emit(
      options, table,
      "Extra rounds track D*(#phases+1) exactly (the schedule slack); the "
      "message ratio stays ~1.\nThe clock-sync row additionally pays its "
      "own ~4 log n pre-phase rounds and n log n activation messages.");
  return 0;
}
