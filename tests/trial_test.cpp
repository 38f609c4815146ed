#include "sim/trial.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "util/rng.hpp"

namespace flip {
namespace {

TEST(TrialTest, RejectsZeroTrials) {
  TrialOptions options;
  options.trials = 0;
  EXPECT_THROW(
      run_trials([](std::uint64_t, std::size_t) { return TrialOutcome{}; },
                 options),
      std::invalid_argument);
}

TEST(TrialTest, AggregatesOutcomes) {
  TrialOptions options;
  options.trials = 10;
  const TrialSummary summary = run_trials(
      [](std::uint64_t, std::size_t i) {
        TrialOutcome o;
        o.success = i % 2 == 0;
        o.rounds = static_cast<double>(i);
        o.messages = 100.0;
        o.correct_fraction = 1.0;
        return o;
      },
      options);
  EXPECT_EQ(summary.trials, 10u);
  EXPECT_EQ(summary.successes, 5u);
  EXPECT_DOUBLE_EQ(summary.success.estimate, 0.5);
  EXPECT_DOUBLE_EQ(summary.rounds.mean(), 4.5);
  EXPECT_DOUBLE_EQ(summary.messages.mean(), 100.0);
}

TEST(TrialTest, EachTrialIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  TrialOptions options;
  options.trials = 64;
  run_trials(
      [&](std::uint64_t, std::size_t i) {
        ++hits[i];
        return TrialOutcome{};
      },
      options);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
  }
}

TEST(TrialTest, SeedIsPassedThrough) {
  TrialOptions options;
  options.trials = 3;
  options.master_seed = 0xabcdULL;
  run_trials(
      [&](std::uint64_t seed, std::size_t) {
        EXPECT_EQ(seed, 0xabcdULL);
        return TrialOutcome{};
      },
      options);
}

TEST(TrialTest, DeterministicAggregation) {
  // A trial function that derives its outcome from (seed, index) must give
  // identical summaries across invocations, regardless of thread timing.
  auto fn = [](std::uint64_t seed, std::size_t i) {
    CounterRng rng(trial_stream_key(seed, i));
    TrialOutcome o;
    o.rounds = static_cast<double>(uniform_index(rng, 1000));
    o.success = uniform_index(rng, 2) == 0;
    return o;
  };
  TrialOptions options;
  options.trials = 50;
  const TrialSummary a = run_trials(fn, options);
  const TrialSummary b = run_trials(fn, options);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_DOUBLE_EQ(a.rounds.mean(), b.rounds.mean());
}

TEST(TrialTest, UsesProvidedPool) {
  ThreadPool pool(2);
  TrialOptions options;
  options.trials = 8;
  options.pool = &pool;
  const TrialSummary summary = run_trials(
      [](std::uint64_t, std::size_t) {
        TrialOutcome o;
        o.success = true;
        return o;
      },
      options);
  EXPECT_EQ(summary.successes, 8u);
}

}  // namespace
}  // namespace flip
