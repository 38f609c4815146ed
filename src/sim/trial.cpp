#include "sim/trial.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace flip {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

TrialSummary run_trials(const TrialFn& fn, const TrialOptions& options) {
  if (options.trials == 0) {
    throw std::invalid_argument("run_trials: trials == 0");
  }
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();

  const auto batch_start = std::chrono::steady_clock::now();
  TrialSummary summary;
  summary.trials = options.trials;
  // Trials run in blocks of a constant size, so the buffers are sized by
  // the block, not by the trial count. Each block folds into the summary
  // in index order: every summary bit is the same for any block boundary
  // or thread count.
  constexpr std::size_t kBlock = 4096;
  const std::size_t block = std::min(options.trials, kBlock);
  std::vector<TrialOutcome> outcomes(block);
  std::vector<double> elapsed(block);
  for (std::size_t first = 0; first < options.trials; first += block) {
    const std::size_t count = std::min(block, options.trials - first);
    pool.parallel_for(count, [&](std::size_t j) {
      // Stream first + j of the master seed: replayable regardless of which
      // worker thread picked up the trial.
      const auto start = std::chrono::steady_clock::now();
      outcomes[j] = fn(options.master_seed, first + j);
      elapsed[j] = seconds_since(start);
    });
    for (std::size_t j = 0; j < count; ++j) {
      const TrialOutcome& o = outcomes[j];
      if (o.success) ++summary.successes;
      summary.rounds.add(o.rounds);
      summary.messages.add(o.messages);
      summary.correct_fraction.add(o.correct_fraction);
      if (std::isfinite(o.convergence_round)) {
        ++summary.converged;
        summary.convergence_rounds.add(o.convergence_round);
      }
      summary.trial_seconds.add(elapsed[j]);
    }
  }
  summary.success = wilson_interval(summary.successes, summary.trials);
  summary.wall_seconds = seconds_since(batch_start);
  return summary;
}

}  // namespace flip
