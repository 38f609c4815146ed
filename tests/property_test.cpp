// Parameterized property sweeps (TEST_P) over the (n, eps) grid and over
// protocol invariants that must hold for every configuration.

#include <gtest/gtest.h>

#include <cmath>

#include "core/breathe.hpp"
#include "core/params.hpp"
#include "core/theory.hpp"
#include "core/two_step.hpp"
#include "sim/mailbox.hpp"
#include "util/math.hpp"
#include "workload/scenarios.hpp"

namespace flip {
namespace {

// ---------------------------------------------------------------------
// Schedule invariants over an (n, eps) grid.
// ---------------------------------------------------------------------

using GridPoint = std::tuple<std::size_t, double>;

class ParamsGridTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(ParamsGridTest, ScheduleInvariantsHold) {
  const auto [n, eps] = GetParam();
  const Params p = Params::calibrated(n, eps);
  EXPECT_NO_THROW(p.validate());

  const StageOneSchedule& s1 = p.stage1();
  // Growth factor beats noise deterioration (Section 2.1.1).
  EXPECT_GT(static_cast<double>(s1.beta) + 1.0, 1.0 / (eps * eps));
  // Every Stage I phase boundary is consistent with phase_of_round.
  for (std::uint64_t phase = 0; phase <= s1.T + 1; ++phase) {
    EXPECT_EQ(s1.phase_of_round(s1.phase_start(phase)), phase);
  }
  // Stage II majority subsets are odd (no ties, ever).
  const StageTwoSchedule& s2 = p.stage2();
  for (std::uint64_t phase = 0; phase <= s2.k; ++phase) {
    EXPECT_EQ(s2.half_length(phase) % 2, 1u) << "phase " << phase;
  }
}

TEST_P(ParamsGridTest, JoinPhaseWithinRange) {
  const auto [n, eps] = GetParam();
  const Params p = Params::calibrated(n, eps);
  for (std::size_t a = 1; a <= n; a *= 4) {
    const std::uint64_t phase = p.join_phase_for_initial_set(a);
    EXPECT_LE(phase, p.stage1().T + 1);
  }
}

TEST_P(ParamsGridTest, AgentStateBitsStayTiny) {
  const auto [n, eps] = GetParam();
  const Params p = Params::calibrated(n, eps);
  // O(log log n + log 1/eps): comfortably under 2*(6 + log2(1/eps^2) + 16).
  EXPECT_LT(agent_state_bits(p),
            64 + 8 * static_cast<std::uint64_t>(std::log2(1.0 / eps)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParamsGridTest,
    ::testing::Combine(::testing::Values(std::size_t{64}, std::size_t{4096},
                                         std::size_t{1} << 18),
                       ::testing::Values(0.05, 0.15, 0.25, 0.4)),
    [](const auto& name_info) {
      return "n" + std::to_string(std::get<0>(name_info.param)) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(name_info.param) * 100));
    });

// ---------------------------------------------------------------------
// Two-step process: exact == via-process across a parameter sweep.
// ---------------------------------------------------------------------

using TwoStepPoint = std::tuple<std::uint64_t, double, double>;

class TwoStepSweepTest : public ::testing::TestWithParam<TwoStepPoint> {};

TEST_P(TwoStepSweepTest, ProcessViewMatchesBinomial) {
  const auto [r, eps, delta] = GetParam();
  SamplingConfig cfg{r, eps, delta};
  EXPECT_NEAR(majority_correct_exact(cfg), majority_correct_via_two_step(cfg),
              1e-9);
}

TEST_P(TwoStepSweepTest, MajorityNeverWorseThanCoinFlip) {
  const auto [r, eps, delta] = GetParam();
  SamplingConfig cfg{r, eps, delta};
  EXPECT_GE(majority_correct_exact(cfg), 0.5 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoStepSweepTest,
    ::testing::Combine(::testing::Values(std::uint64_t{3}, std::uint64_t{25},
                                         std::uint64_t{200}),
                       ::testing::Values(0.05, 0.2, 0.45),
                       ::testing::Values(0.0, 0.001, 0.05, 0.25, 0.5)),
    [](const auto& name_info) {
      return "r" + std::to_string(std::get<0>(name_info.param)) + "_e" +
             std::to_string(static_cast<int>(std::get<1>(name_info.param) * 100)) +
             "_d" +
             std::to_string(static_cast<int>(std::get<2>(name_info.param) * 1000));
    });

// ---------------------------------------------------------------------
// Mailbox acceptance fairness across population sizes.
// ---------------------------------------------------------------------

class MailboxFairnessTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MailboxFairnessTest, AcceptanceUniformAmongKArrivals) {
  const std::size_t k = GetParam();
  Mailbox mailbox(k + 1);
  CounterRng rng(trial_stream_key(4242 + k, 0));
  std::vector<int> kept(k, 0);
  constexpr int kRounds = 30000;
  for (int round = 0; round < kRounds; ++round) {
    mailbox.reset();
    for (AgentId s = 0; s < k; ++s) {
      mailbox.offer(static_cast<AgentId>(k), s, Opinion::kOne, rng());
    }
    ++kept[mailbox.accepted(static_cast<AgentId>(k)).sender];
  }
  const double expected = static_cast<double>(kRounds) / static_cast<double>(k);
  for (std::size_t s = 0; s < k; ++s) {
    EXPECT_NEAR(kept[s], expected, 6.0 * std::sqrt(expected))
        << "sender " << s << " of " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, MailboxFairnessTest,
                         ::testing::Values(std::size_t{2}, std::size_t{3},
                                           std::size_t{5}, std::size_t{8}));

// ---------------------------------------------------------------------
// End-to-end broadcast across a small grid: protocol-level invariants.
// ---------------------------------------------------------------------

class BroadcastGridTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(BroadcastGridTest, RunCompletesActivatesAllAndMessagesMatchSchedule) {
  const auto [n, eps] = GetParam();
  BroadcastScenario scenario;
  scenario.n = n;
  scenario.eps = eps;
  const RunDetail detail = run_broadcast(scenario, 4711, 0);

  // All agents activated by Stage I's end (Corollary 2.6).
  ASSERT_FALSE(detail.stage1.empty());
  EXPECT_EQ(detail.stage1.back().total_activated, n);

  // The run used exactly the scheduled number of rounds.
  const Params p = Params::calibrated(n, eps);
  EXPECT_EQ(detail.metrics.rounds, p.total_rounds());

  // Message accounting: delivered + dropped + erased == sent.
  EXPECT_EQ(detail.metrics.delivered + detail.metrics.dropped +
                detail.metrics.erased,
            detail.metrics.messages_sent);

  // Flip rate over accepted messages concentrates near 1/2 - eps.
  const double flip_rate = static_cast<double>(detail.metrics.flipped) /
                           static_cast<double>(detail.metrics.delivered);
  EXPECT_NEAR(flip_rate, 0.5 - eps, 0.02);

  // Correctness: near-unanimity at worst on this grid.
  EXPECT_GE(detail.correct_fraction, 0.99) << "n=" << n << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BroadcastGridTest,
    ::testing::Combine(::testing::Values(std::size_t{256}, std::size_t{1024}),
                       ::testing::Values(0.2, 0.3, 0.45)),
    [](const auto& name_info) {
      return "n" + std::to_string(std::get<0>(name_info.param)) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(name_info.param) * 100));
    });

// ---------------------------------------------------------------------
// Lemma 2.11 bound across the regime split, with the paper's r.
// ---------------------------------------------------------------------

class Lemma211Test : public ::testing::TestWithParam<double> {};

TEST_P(Lemma211Test, ExactProbabilityDominatesBound) {
  const double delta = GetParam();
  const double eps = 0.45;
  const auto r =
      static_cast<std::uint64_t>(std::ceil(4194304.0 / (eps * eps)));
  SamplingConfig cfg{r, eps, delta};
  EXPECT_GE(majority_correct_exact(cfg) + 1e-12,
            theory::lemma_2_11_lower_bound(delta))
      << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, Lemma211Test,
                         ::testing::Values(1e-9, 1e-7, 1e-6, 1e-5, 1e-4,
                                           1e-3, 1e-2, 0.05, 0.2, 0.45));


// ---------------------------------------------------------------------
// Desync grid: Theorem 3.1's guarantee across (D, attribution).
// ---------------------------------------------------------------------

using DesyncPoint = std::tuple<Round, Attribution>;

class DesyncGridTest : public ::testing::TestWithParam<DesyncPoint> {};

TEST_P(DesyncGridTest, OverheadExactAndBroadcastSucceeds) {
  const auto [skew, attribution] = GetParam();
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = skew;
  scenario.attribution = attribution;
  const RunDetail detail = run_desync(scenario, 0xD0 + skew, 0);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds, p.total_rounds() + detail.desync_overhead);
  EXPECT_TRUE(detail.success) << "D=" << skew;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DesyncGridTest,
    ::testing::Combine(::testing::Values(Round{0}, Round{4}, Round{16},
                                         Round{64}),
                       ::testing::Values(Attribution::kLocalWindow,
                                         Attribution::kOracle)),
    [](const auto& name_info) {
      return "D" + std::to_string(std::get<0>(name_info.param)) +
             (std::get<1>(name_info.param) == Attribution::kOracle ? "_oracle"
                                                              : "_local");
    });

// ---------------------------------------------------------------------
// Rule-variant grid: Remarks 2.1 / 2.10 across (pick, subset).
// ---------------------------------------------------------------------

using VariantPoint = std::tuple<Stage1Pick, Stage2Subset>;

class VariantGridTest : public ::testing::TestWithParam<VariantPoint> {};

TEST_P(VariantGridTest, BroadcastSucceeds) {
  const auto [pick, subset] = GetParam();
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.stage1_pick = pick;
  scenario.stage2_subset = subset;
  EXPECT_TRUE(run_broadcast(scenario, 0xF00, 0).success);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VariantGridTest,
    ::testing::Combine(::testing::Values(Stage1Pick::kUniformMessage,
                                         Stage1Pick::kFirstMessage),
                       ::testing::Values(Stage2Subset::kUniformSubset,
                                         Stage2Subset::kPrefixSubset)),
    [](const auto& name_info) {
      return std::string(std::get<0>(name_info.param) ==
                                 Stage1Pick::kFirstMessage
                             ? "first"
                             : "uniform") +
             (std::get<1>(name_info.param) == Stage2Subset::kPrefixSubset
                  ? "_prefix"
                  : "_uniformsub");
    });

}  // namespace
}  // namespace flip
