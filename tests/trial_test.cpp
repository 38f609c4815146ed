#include "sim/trial.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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

// 10,000 trials run as three blocks on a 4-worker pool; the summary must
// equal the fold of the same outcomes in index order on this thread, bit
// for bit, whatever the block boundaries and the thread that ran a trial.
TEST(TrialTest, BlockedSummaryEqualsInOrderAggregation) {
  auto fn = [](std::uint64_t seed, std::size_t i) {
    CounterRng rng(trial_stream_key(seed, i));
    TrialOutcome o;
    o.success = uniform_index(rng, 3) != 0;
    o.rounds = static_cast<double>(uniform_index(rng, 1000)) / 7.0;
    o.messages = static_cast<double>(uniform_index(rng, 1u << 20)) / 3.0;
    o.correct_fraction = static_cast<double>(uniform_index(rng, 997)) / 997.0;
    if (uniform_index(rng, 2) == 0) {
      o.convergence_round = static_cast<double>(uniform_index(rng, 500)) / 9.0;
    }
    return o;
  };
  ThreadPool pool(4);
  TrialOptions options;
  options.trials = 10'000;
  options.master_seed = 0xb10cULL;
  options.pool = &pool;
  const TrialSummary summary = run_trials(fn, options);

  std::size_t successes = 0;
  std::size_t converged = 0;
  RunningStats rounds, messages, correct_fraction, convergence_rounds;
  for (std::size_t i = 0; i < options.trials; ++i) {
    const TrialOutcome o = fn(options.master_seed, i);
    if (o.success) ++successes;
    rounds.add(o.rounds);
    messages.add(o.messages);
    correct_fraction.add(o.correct_fraction);
    if (std::isfinite(o.convergence_round)) {
      ++converged;
      convergence_rounds.add(o.convergence_round);
    }
  }
  const auto expect_same = [](const RunningStats& got,
                              const RunningStats& want, const char* field) {
    EXPECT_EQ(got.count(), want.count()) << field;
    EXPECT_EQ(got.mean(), want.mean()) << field;
    EXPECT_EQ(got.variance(), want.variance()) << field;
    EXPECT_EQ(got.min(), want.min()) << field;
    EXPECT_EQ(got.max(), want.max()) << field;
  };
  EXPECT_EQ(summary.trials, options.trials);
  EXPECT_EQ(summary.successes, successes);
  EXPECT_EQ(summary.converged, converged);
  ASSERT_GT(converged, 0u);
  ASSERT_LT(converged, options.trials);
  expect_same(summary.rounds, rounds, "rounds");
  expect_same(summary.messages, messages, "messages");
  expect_same(summary.correct_fraction, correct_fraction, "correct_fraction");
  expect_same(summary.convergence_rounds, convergence_rounds,
              "convergence_rounds");
  const ProportionCI ci = wilson_interval(successes, options.trials);
  EXPECT_EQ(summary.success.estimate, ci.estimate);
  EXPECT_EQ(summary.success.low, ci.low);
  EXPECT_EQ(summary.success.high, ci.high);
  EXPECT_EQ(summary.trial_seconds.count(), options.trials);
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
