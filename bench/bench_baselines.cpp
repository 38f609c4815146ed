// E9 — Section 1.6 strawmen and Section 1.2 related dynamics.
//
// Compares the breathe protocol against every alternative the paper
// discusses, all under the same Flip-model noise:
//   silent-listen  (Sec 1.6): reliable but Theta(n log n/eps^2) rounds;
//   forward-now    (Sec 1.6): fast but bias decays as (2 eps)^depth -> 1/2;
//   noisy voter    (refs 49/50): hovers near 50/50, no convergence;
//   two-choices    (ref 22) and 3-majority (ref 11): noiseless-majority
//                  dynamics run through the noisy channel;
//   3-state AAE    (ref 6): needs three symbols; noisy misreads break it;
//   push rumor     (noiseless reference point: what's possible sans noise).
//
// Every row is a registry entry (workload/registry.hpp) run at n = 2048:
// the registry is where each baseline's parameters are derived.

#include <cstddef>
#include <cstdint>

#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "sim/trial.hpp"
#include "workload/registry.hpp"

namespace {

struct Row {
  const char* label;
  const char* problem;
  const char* entry;  ///< registry name
  double eps;
  std::size_t trial;   ///< first trial key under seed 0xE9
  std::size_t trials;  ///< runs trials [trial, trial + trials)
  const char* note;
};

// breathe runs trials 0-4 of seed 0xE9 and each other row one trial of its
// own, so no two rows share a stream. eps 0.5 is the noiseless channel:
// the BSC flips with probability 1/2 - eps = 0.
constexpr Row kRows[] = {
    {"breathe (this paper)", "broadcast", "broadcast", 0.2, 0, 5,
     "optimal O(log n/eps^2)"},
    {"silent-listen (Sec 1.6)", "broadcast", "baseline_silent", 0.2, 10, 1,
     "correct but Theta(n log n/eps^2)"},
    {"forward-now (Sec 1.6)", "broadcast", "baseline_forward", 0.2, 11, 1,
     "fast; bias decays (2eps)^depth"},
    {"noisy voter (refs 49,50)", "broadcast", "baseline_voter", 0.2, 12, 1,
     "hovers near 1/2 at 16x our budget"},
    {"two-choices (ref 22)", "majority (60/40)", "baseline_two_choices", 0.2,
     13, 1, "noiseless O(log n) dynamics under noise"},
    {"3-majority (ref 11)", "majority (60/40)", "baseline_three_majority",
     0.2, 14, 1, "noiseless O(log n) dynamics under noise"},
    {"3-state AAE (ref 6)", "majority (3:1 seeds)", "baseline_aae", 0.2, 15,
     1, "needs 3 symbols; misreads break it"},
    {"push rumor, NO noise", "broadcast", "baseline_forward", 0.5, 16, 1,
     "the noiseless log n reference"},
};

}  // namespace

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E9 bench_baselines",
      "Every alternative the paper discusses, same noise (eps = 0.2), "
      "n = 2048.\nExpect: only breathe solves noisy broadcast in "
      "~log n/eps^2 rounds; each baseline fails on speed or correctness.");

  const std::size_t n = 2048;
  const double unit = flip::theory::round_unit(n, 0.2);

  flip::TextTable table({"protocol", "problem", "rounds", "rounds/unit",
                         "correct fraction", "consensus", "note"});
  for (const Row& row : kRows) {
    flip::ScenarioOverrides overrides;
    overrides.n = n;
    overrides.eps = row.eps;
    const flip::TrialFn fn =
        flip::ScenarioRegistry::instance().make(row.entry, overrides);
    flip::TrialOptions trial_options;
    trial_options.trials = row.trials;
    trial_options.master_seed = 0xE9;
    const flip::TrialSummary s = flip::run_trials(
        [&fn, first = row.trial](std::uint64_t seed, std::size_t i) {
          return fn(seed, first + i);
        },
        trial_options);
    table.row()
        .cell(row.label)
        .cell(row.problem)
        .cell(s.rounds.mean(), 0)
        .cell(s.rounds.mean() / unit, 2)
        .cell(s.correct_fraction.mean(), 3)
        .cell(s.successes == s.trials)
        .cell(row.note);
  }
  flip::cli::bench_emit(
      options, table,
      "unit = log n / eps^2 = " + flip::format_fixed(unit, 0) + " rounds.");
  return 0;
}
