// E4 — Claim 2.4, Corollaries 2.5/2.6 (Stage I layer growth).
//
// Claim 2.4: w.h.p. (beta+1)^i X0 / 16 <= X_i <= (beta+1)^i X0 for every
// middle phase i. Corollary 2.5: X_T = Omega(eps^2 n). Corollary 2.6: all
// agents are activated by the end of Stage I.
//
// Uses a large n with mild noise so that the schedule has several middle
// phases (T >= 2), and runs Stage I only.

#include <iostream>

#include "cli/bench_report.hpp"
#include "core/params.hpp"
#include "core/theory.hpp"
#include "util/stats.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E4 bench_stage1_growth",
      "Claim 2.4: layer sizes X_i within [(beta+1)^i X0/16, (beta+1)^i X0];\n"
      "Cor 2.5: X_T = Omega(eps^2 n); Cor 2.6: everyone activated.");

  const std::size_t n = 1 << 20;
  const double eps = 0.35;
  const flip::Params params = flip::Params::calibrated(n, eps);
  if (!options.csv) {
    std::cout << params.describe() << "\n\n";
  }

  constexpr std::size_t kTrials = 4;
  // Accumulate X_i across trials, indexed by phase.
  std::vector<flip::RunningStats> x_stats(params.stage1().num_phases());
  std::size_t activated_all = 0;
  flip::RunningStats x_t;  // activated at the START of the last phase
  for (std::size_t t = 0; t < kTrials; ++t) {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.stage1_only = true;
    const flip::RunDetail detail = flip::run_broadcast(scenario, 0xE4, t);
    for (const auto& s : detail.stage1) {
      x_stats[s.phase].add(static_cast<double>(s.total_activated));
    }
    if (!detail.stage1.empty() &&
        detail.stage1.back().total_activated == n) {
      ++activated_all;
    }
    // X_T: activated before the final phase = total at phase T's end.
    if (detail.stage1.size() >= 2) {
      x_t.add(static_cast<double>(
          detail.stage1[detail.stage1.size() - 2].total_activated));
    }
  }

  flip::TextTable table({"phase", "mean X_i", "lower bound X0(b+1)^i/16",
                         "upper bound X0(b+1)^i", "within bounds"});
  const double x0 = x_stats[0].mean();
  const std::uint64_t beta = params.stage1().beta;
  for (std::uint64_t i = 0; i <= params.stage1().T; ++i) {
    const double xi = x_stats[i].mean();
    const double lo =
        flip::theory::stage1_growth_lower(static_cast<std::uint64_t>(x0),
                                          beta, i);
    const double hi =
        flip::theory::stage1_growth_upper(static_cast<std::uint64_t>(x0),
                                          beta, i);
    table.row()
        .cell("phase " + std::to_string(i))
        .cell(xi, 0)
        .cell(lo, 0)
        .cell(hi, 0)
        .cell(xi >= lo && xi <= hi + 0.5);
  }
  table.row()
      .cell("phase T+1 (final)")
      .cell(x_stats[params.stage1().T + 1].mean(), 0)
      .cell(static_cast<double>(n), 0)
      .cell(static_cast<double>(n), 0)
      .cell(activated_all == kTrials);

  const double eps2n = eps * eps * static_cast<double>(n);
  flip::cli::bench_emit(
      options, table,
      "X_T / (eps^2 n) = " + flip::format_fixed(x_t.mean() / eps2n, 2) +
          " (Cor 2.5 expects a positive constant); all-activated in " +
          std::to_string(activated_all) + "/" + std::to_string(kTrials) +
          " trials (Cor 2.6).");
  return 0;
}
