#include "sim/series.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "workload/scenarios.hpp"

namespace flip {
namespace {

std::vector<Sample> make_series(std::initializer_list<double> values) {
  std::vector<Sample> series;
  Round r = 0;
  for (double v : values) series.push_back({r++, v});
  return series;
}

TEST(SeriesTest, StableCrossingIgnoresTransients) {
  // Touches 0.5 at index 2 but dips back below; stable from index 4.
  const auto s = make_series({0.1, 0.4, 0.6, 0.3, 0.9, 0.95, 1.0});
  EXPECT_EQ(stable_crossing(s, 0.5), Round{4});
}

TEST(SeriesTest, StableCrossingEdgeCases) {
  EXPECT_EQ(stable_crossing({}, 0.5), std::nullopt);
  const auto never = make_series({0.1, 0.2});
  EXPECT_EQ(stable_crossing(never, 0.5), std::nullopt);
  const auto always = make_series({0.9, 0.8});
  EXPECT_EQ(stable_crossing(always, 0.5), Round{0});
  const auto last_only = make_series({0.1, 0.9});
  EXPECT_EQ(stable_crossing(last_only, 0.5), Round{1});
}

// The convergence-round statistic as the sweep reporting computes it: a
// stable 99%-of-n crossing over an activation-count series.
TEST(SeriesTest, ActivationConvergenceShape) {
  std::vector<Sample> series;
  const double n = 256.0;
  const double counts[] = {1, 30, 252, 200, 254, 255, 256, 256};
  Round r = 0;
  for (const double c : counts) series.push_back({r += 8, c});
  // 0.99 * 256 = 253.44: touched at round 24 (252 < threshold, so not
  // yet), stably from the 254 sample on.
  EXPECT_EQ(stable_crossing(series, 0.99 * n), Round{40});
}

TEST(SeriesTest, BroadcastActivationConvergenceTime) {
  // End-to-end: the round at which all agents are stably activated must
  // fall inside Stage I, and the bias series must plateau at +1/2.
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.probe_every = 10;
  const RunDetail d = run_broadcast(scenario, 51, 0);
  const Params p = Params::calibrated(scenario.n, scenario.eps);

  const auto activated_all = stable_crossing(
      d.metrics.activated_series, static_cast<double>(scenario.n));
  ASSERT_TRUE(activated_all.has_value());
  // Probes are every probe_every rounds, so the observed crossing can lag
  // the true activation round by up to one probe period.
  EXPECT_LE(*activated_all,
            p.stage1().total_rounds() + scenario.probe_every);

  const auto& bias = d.metrics.bias_series;
  ASSERT_GE(bias.size(), 4u);
  for (std::size_t i = bias.size() - 4; i < bias.size(); ++i) {
    EXPECT_NEAR(bias[i].value, 0.5, 1e-9) << "probe round " << bias[i].round;
  }
}

}  // namespace
}  // namespace flip
