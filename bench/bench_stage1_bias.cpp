// E5 — Claims 2.2 & 2.8, Lemma 2.3 (Stage I bias preservation).
//
// Claim 2.2: the phase-0 layer has bias eps_0 >= eps/2.
// Claim 2.8: the phase-i layer has bias eps_i >= eps^(i+1)/2 — each relay
//            layer multiplies the bias by about 2*eps (one noisy sample of
//            a biased population: delta -> 2 eps delta).
// Lemma 2.3: at Stage I's end all agents hold opinions whose overall bias
//            is Omega(sqrt(log n / n)) — tiny but nonzero, which is all
//            Stage II needs.

#include "cli/bench_report.hpp"
#include "core/params.hpp"
#include "core/theory.hpp"
#include "util/stats.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E5 bench_stage1_bias",
      "Claims 2.2/2.8: layer bias eps_i >= eps^(i+1)/2 (deteriorates ~2 eps "
      "per layer);\nLemma 2.3: final overall bias = Omega(sqrt(log n/n)).");

  const std::size_t n = 1 << 20;
  const double eps = 0.35;
  const flip::Params params = flip::Params::calibrated(n, eps);

  constexpr std::size_t kTrials = 4;
  std::vector<flip::RunningStats> layer_bias(params.stage1().num_phases());
  flip::RunningStats overall_bias;
  for (std::size_t t = 0; t < kTrials; ++t) {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.stage1_only = true;
    const flip::RunDetail detail = flip::run_broadcast(scenario, 0xE5, t);
    for (const auto& s : detail.stage1) {
      layer_bias[s.phase].add(s.layer_bias());
    }
    overall_bias.add(detail.final_bias);
  }

  flip::TextTable table({"layer (phase)", "mean layer bias eps_i",
                         "paper lower bound eps^(i+1)/2",
                         "expected recursion (2eps)^i * eps"});
  for (std::uint64_t i = 0; i < layer_bias.size(); ++i) {
    if (layer_bias[i].count() == 0) continue;
    // The mean-field recursion: layer 0 has bias ~eps, each further layer
    // multiplies by ~2 eps (theory::sampled_bias).
    double expected = eps;
    for (std::uint64_t j = 0; j < i; ++j) {
      expected = flip::theory::sampled_bias(eps, expected);
    }
    table.row()
        .cell("phase " + std::to_string(i))
        .cell(layer_bias[i].mean(), 4)
        .cell(flip::theory::stage1_bias_lower_bound(eps, i), 4)
        .cell(expected, 4);
  }

  const double unit = flip::theory::stage1_output_bias_unit(n);
  flip::cli::bench_emit(
      options, table,
      "Final overall bias " + flip::format_fixed(overall_bias.mean(), 5) +
          " vs sqrt(log n/n) = " + flip::format_fixed(unit, 5) +
          "  (ratio " + flip::format_fixed(overall_bias.mean() / unit, 2) +
          ", Lemma 2.3 expects a positive constant).");
  return 0;
}
