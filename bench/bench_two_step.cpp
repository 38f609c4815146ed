// E6 — Lemma 2.11 and Claim 2.12 (the majority-boost probability).
//
// Lemma 2.11: taking gamma = 2r+1 noisy samples from a population with
// bias delta, the majority is correct with probability at least
// min{1/2 + 4 delta, 1/2 + 1/100} (with the paper's r = ceil(2^22/eps^2)).
// Claim 2.12: Pr(U_x) > x/(10 sqrt r) for 1 <= x <= sqrt r.
//
// Three computations cross-check each other: the direct binomial, the
// imaginary two-step process (the proof's construction), and Monte Carlo.

#include <cmath>

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "core/two_step.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E6 bench_two_step",
      "Lemma 2.11: P[majority of gamma noisy samples correct] >= "
      "min{1/2+4delta, 1/2+1/100};\nClaim 2.12: Pr(U_x) > x/(10 sqrt r). "
      "Exact binomial vs two-step process vs Monte Carlo.");

  const double eps = 0.45;
  const auto paper_r =
      static_cast<std::uint64_t>(std::ceil(4194304.0 / (eps * eps)));

  flip::TextTable lemma_table({"delta", "regime", "exact P[maj correct]",
                               "paper bound", "holds"});
  for (const double delta : {1e-8, 1e-6, 1e-5, 1e-4, 1.0 / 4096.0, 0.01,
                             0.05, 0.2}) {
    flip::SamplingConfig cfg{paper_r, eps, delta};
    const double exact = flip::majority_correct_exact(cfg);
    const double bound = flip::theory::lemma_2_11_lower_bound(delta);
    const char* regime =
        flip::classify_delta(eps, delta) == flip::DeltaRegime::kSmall
            ? "small"
            : (flip::classify_delta(eps, delta) == flip::DeltaRegime::kMedium
                   ? "medium"
                   : "large");
    lemma_table.row()
        .cell(flip::format_sci(delta, 1))
        .cell(regime)
        .cell(exact, 6)
        .cell(bound, 6)
        .cell(exact + 1e-12 >= bound);
  }
  flip::cli::bench_emit(options, lemma_table,
                        "(r = ceil(2^22/eps^2) as in Section 2.2.2)");

  // Cross-validation of the three views at a computable size.
  flip::TextTable xval({"r", "eps", "delta", "exact", "two-step process",
                        "monte carlo (200k)"});
  flip::CounterRng rng(flip::trial_stream_key(0xE6, 0));
  for (const double delta : {0.005, 0.02, 0.1}) {
    flip::SamplingConfig cfg{50, 0.25, delta};
    xval.row()
        .cell(std::size_t{50})
        .cell(0.25, 2)
        .cell(delta, 3)
        .cell(flip::majority_correct_exact(cfg), 5)
        .cell(flip::majority_correct_via_two_step(cfg), 5)
        .cell(flip::majority_correct_monte_carlo(cfg, 200000, rng), 5);
  }
  flip::cli::bench_emit(options, xval,
                        "The two-step process is an exactly equivalent view of "
                        "the sampling (the proof's key construction).");

  flip::TextTable stirling({"r", "x", "Pr(U_x) exact",
                            "Claim 2.12 bound x/(10 sqrt r)", "holds"});
  for (const std::uint64_t r : {64ULL, 1024ULL, 16384ULL}) {
    const auto x_max =
        static_cast<std::uint64_t>(std::sqrt(static_cast<double>(r)));
    for (const std::uint64_t x : {std::uint64_t{1}, x_max / 2, x_max}) {
      if (x == 0) continue;
      const double exact = flip::prob_U_x(r, x);
      const double bound = flip::claim_2_12_bound(r, x);
      stirling.row()
          .cell(std::size_t{r})
          .cell(std::size_t{x})
          .cell(exact, 5)
          .cell(bound, 5)
          .cell(exact > bound);
    }
  }
  flip::cli::bench_emit(options, stirling, "");
  return 0;
}
