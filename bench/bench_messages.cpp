// E3 — Theorem 2.17 + Section 1.4 (message/bit complexity).
//
// Claim: the protocol uses O(n log n / eps^2) messages total (every message
// is one bit), matching the Omega(n log n / eps^2) lower bound: each agent
// individually needs Omega(log n / eps^2) noisy samples even if all came
// straight from the source. Expect messages/(n log n/eps^2) in a constant
// band, and per-agent deliveries above the Shannon-style floor.

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E3 bench_messages",
      "Theorem 2.17 / Section 1.4: Theta(n log n / eps^2) total bits.\n"
      "Expect: messages/(n log n/eps^2) ~ constant over n AND eps;\n"
      "per-agent accepted samples >= the per-agent lower-bound unit.");

  flip::TextTable table({"n", "eps", "trials", "messages",
                         "msgs/(n log n/eps^2)", "delivered/agent",
                         "lower-bound unit", "success"});
  for (const std::size_t n :
       {std::size_t{2048}, std::size_t{8192}, std::size_t{32768}}) {
    for (const double eps : {0.3, 0.2}) {
      flip::BroadcastScenario scenario;
      scenario.n = n;
      scenario.eps = eps;
      flip::TrialOptions trial_options;
      trial_options.trials = n <= 8192 ? 6 : 3;
      trial_options.master_seed = 0xE3;
      // One detailed run for the delivery accounting; the summary for the
      // message totals.
      const flip::RunDetail detail = flip::run_broadcast(scenario, 0xE3, 0);
      const flip::TrialSummary summary =
          flip::run_trials(flip::broadcast_trial_fn(scenario), trial_options);
      const double unit = flip::theory::message_unit(n, eps);
      const double per_agent =
          static_cast<double>(detail.metrics.delivered) /
          static_cast<double>(n);
      table.row()
          .cell(n)
          .cell(eps, 2)
          .cell(summary.trials)
          .cell(summary.messages.mean(), 0)
          .cell(summary.messages.mean() / unit, 2)
          .cell(per_agent, 0)
          .cell(flip::theory::per_agent_sample_lower_bound(n, eps), 0)
          .cell(summary.success.to_string());
    }
  }
  flip::cli::bench_emit(
      options, table,
      "The middle ratio column staying flat across both sweeps is the "
      "Theta(n log n/eps^2) claim;\nits being within a small constant of 1 "
      "shows the protocol sits near the Section 1.4 lower bound.");
  return 0;
}
