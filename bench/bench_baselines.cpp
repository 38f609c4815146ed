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

#include <cmath>
#include <string>

#include "baselines/aae.hpp"
#include "baselines/forward.hpp"
#include "baselines/pull_majority.hpp"
#include "baselines/silent.hpp"
#include "baselines/voter.hpp"
#include "cli/bench_report.hpp"
#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "workload/scenarios.hpp"

namespace {

struct Row {
  std::string name;
  std::string problem;
  double rounds = 0.0;
  double correct = 0.0;
  bool consensus = false;
  std::string note;
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
  const double eps = 0.2;
  const std::uint64_t seed = 0xE9;
  const double unit = flip::theory::round_unit(n, eps);
  std::vector<Row> rows;

  // --- breathe (ours) -------------------------------------------------
  {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    flip::TrialOptions trial_options;
    trial_options.trials = 5;
    trial_options.master_seed = seed;
    const flip::TrialSummary s =
        flip::run_trials(flip::broadcast_trial_fn(scenario), trial_options);
    rows.push_back({"breathe (this paper)", "broadcast", s.rounds.mean(),
                    s.correct_fraction.mean(),
                    s.successes == s.trials, "optimal O(log n/eps^2)"});
  }

  // --- silent listening ------------------------------------------------
  {
    flip::BinarySymmetricChannel channel(eps);
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 10));
    flip::SilentConfig config;
    config.samples_needed =
        flip::next_odd(static_cast<std::uint64_t>(unit));
    config.max_rounds = static_cast<flip::Round>(
        64.0 * static_cast<double>(n) * unit);
    flip::SilentListeningProtocol p(n, config);
    const flip::Metrics m = engine.run(p, config.max_rounds);
    rows.push_back({"silent-listen (Sec 1.6)", "broadcast",
                    static_cast<double>(m.rounds),
                    p.population().correct_fraction(flip::Opinion::kOne),
                    p.all_decided(), "correct but Theta(n log n/eps^2)"});
  }

  // --- forward immediately --------------------------------------------
  {
    flip::BinarySymmetricChannel channel(eps);
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 11));
    flip::ForwardConfig config;
    config.initial = {flip::Seed{0, flip::Opinion::kOne}};
    config.stop_when_all_informed = true;
    flip::ForwardGossipProtocol p(n, config);
    const flip::Metrics m = engine.run(p, 1 << 20);
    rows.push_back({"forward-now (Sec 1.6)", "broadcast",
                    static_cast<double>(m.rounds),
                    p.population().correct_fraction(flip::Opinion::kOne),
                    false, "fast; bias decays (2eps)^depth"});
  }

  // --- noisy voter with zealot ------------------------------------------
  {
    flip::BinarySymmetricChannel channel(eps);
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 12));
    flip::VoterConfig config;
    config.zealots = {flip::Seed{0, flip::Opinion::kOne}};
    config.duration = static_cast<flip::Round>(16.0 * unit);
    flip::NoisyVoterProtocol p(n, config);
    const flip::Metrics m = engine.run(p, config.duration);
    rows.push_back({"noisy voter (refs 49,50)", "broadcast",
                    static_cast<double>(m.rounds),
                    p.population().correct_fraction(flip::Opinion::kOne),
                    false, "hovers near 1/2 at 16x our budget"});
  }

  // --- pull dynamics on the majority problem ---------------------------
  for (const auto rule :
       {flip::PullRule::kTwoPlusOwn, flip::PullRule::kThreeSamples}) {
    flip::BinarySymmetricChannel channel(eps);
    const flip::StreamKey key = flip::trial_stream_key(
        seed, rule == flip::PullRule::kTwoPlusOwn ? 13 : 14);
    flip::PullMajorityConfig config;
    config.rule = rule;
    config.initial_correct_fraction = 0.6;
    config.max_rounds = static_cast<flip::Round>(8.0 * unit);
    flip::PullMajorityDynamics dynamics(n, config, channel, key);
    const flip::PullMajorityResult r = dynamics.run();
    rows.push_back({rule == flip::PullRule::kTwoPlusOwn
                        ? "two-choices (ref 22)"
                        : "3-majority (ref 11)",
                    "majority (60/40)", static_cast<double>(r.rounds),
                    r.final_correct_fraction, r.consensus,
                    "noiseless O(log n) dynamics under noise"});
  }

  // --- three-state AAE ---------------------------------------------------
  {
    flip::AAEConfig config;
    config.initial_correct = n * 3 / 10;
    config.initial_wrong = n / 10;
    config.eps = eps;
    config.max_rounds = static_cast<flip::Round>(8.0 * unit);
    flip::ThreeStateAAE aae(n, config, flip::trial_stream_key(seed, 15));
    const flip::AAEResult r = aae.run();
    rows.push_back({"3-state AAE (ref 6)", "majority (3:1 seeds)",
                    static_cast<double>(r.rounds), r.final_correct_fraction,
                    r.consensus, "needs 3 symbols; misreads break it"});
  }

  // --- noiseless push rumor (reference point) ---------------------------
  {
    flip::PerfectChannel channel;
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 16));
    flip::ForwardConfig config;
    config.initial = {flip::Seed{0, flip::Opinion::kOne}};
    config.stop_when_all_informed = true;
    flip::ForwardGossipProtocol p(n, config);
    const flip::Metrics m = engine.run(p, 1 << 20);
    rows.push_back({"push rumor, NO noise", "broadcast",
                    static_cast<double>(m.rounds),
                    p.population().correct_fraction(flip::Opinion::kOne),
                    true, "the noiseless log n reference"});
  }

  flip::TextTable table({"protocol", "problem", "rounds", "rounds/unit",
                         "correct fraction", "consensus", "note"});
  for (const Row& row : rows) {
    table.row()
        .cell(row.name)
        .cell(row.problem)
        .cell(row.rounds, 0)
        .cell(row.rounds / unit, 2)
        .cell(row.correct, 3)
        .cell(row.consensus)
        .cell(row.note);
  }
  flip::cli::bench_emit(
      options, table,
      "unit = log n / eps^2 = " + flip::format_fixed(unit, 0) + " rounds.");
  return 0;
}
