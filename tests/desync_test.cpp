#include "core/desync.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/channel.hpp"
#include "sim/engine.hpp"

namespace flip {
namespace {

DesyncConfig make_config(std::size_t n, Round skew, Attribution attribution,
                         CounterRng& rng) {
  DesyncConfig config;
  config.base = broadcast_config();
  config.max_skew = skew;
  config.attribution = attribution;
  config.wake.resize(n, 0);
  if (skew > 0) {
    for (Round& w : config.wake) w = uniform_index(rng, skew + 1);
  }
  return config;
}

struct DesyncHarness {
  DesyncHarness(std::size_t n, double eps, std::uint64_t seed, Round skew,
                Attribution attribution = Attribution::kLocalWindow)
      : params(Params::calibrated(n, eps)),
        key(trial_stream_key(seed, 0)),
        setup_rng(trial_stream_key(seed, 2)),
        channel(eps),
        engine(n, channel, key),
        protocol(params, make_config(n, skew, attribution, setup_rng), key) {}

  Metrics run() { return engine.run(protocol, protocol.total_rounds()); }

  Params params;
  StreamKey key;
  CounterRng setup_rng;
  BinarySymmetricChannel channel;
  Engine engine;
  DesyncBreatheProtocol protocol;
};

TEST(DesyncProtocolTest, RejectsBadConfigs) {
  const Params p = Params::calibrated(64, 0.3);
  const StreamKey key = trial_stream_key(1, 0);

  DesyncConfig wrong_size;
  wrong_size.base = broadcast_config();
  wrong_size.wake.resize(10, 0);
  EXPECT_THROW(DesyncBreatheProtocol(p, wrong_size, key),
               std::invalid_argument);

  DesyncConfig offset_too_big;
  offset_too_big.base = broadcast_config();
  offset_too_big.wake.resize(64, 0);
  offset_too_big.wake[3] = 5;
  offset_too_big.max_skew = 4;
  EXPECT_THROW(DesyncBreatheProtocol(p, offset_too_big, key),
               std::invalid_argument);

  DesyncConfig no_seeds;
  no_seeds.wake.resize(64, 0);
  EXPECT_THROW(DesyncBreatheProtocol(p, no_seeds, key),
               std::invalid_argument);
}

TEST(DesyncProtocolTest, ZeroSkewMatchesSynchronousSchedule) {
  DesyncHarness h(256, 0.3, 2, /*skew=*/0);
  EXPECT_EQ(h.protocol.desync_overhead(), 0u);
  EXPECT_EQ(h.protocol.total_rounds(), h.params.total_rounds());
}

TEST(DesyncProtocolTest, OverheadIsPhasesPlusOneTimesD) {
  const Round D = 16;
  DesyncHarness h(256, 0.3, 3, D);
  EXPECT_EQ(h.protocol.desync_overhead(),
            (h.protocol.num_phases() + 1) * D);
  EXPECT_EQ(h.protocol.total_rounds(),
            h.params.total_rounds() + h.protocol.desync_overhead());
}

TEST(DesyncProtocolTest, ZeroSkewBroadcastSucceeds) {
  DesyncHarness h(512, 0.3, 4, 0);
  h.run();
  EXPECT_TRUE(h.protocol.succeeded());
}

TEST(DesyncProtocolTest, SkewedBroadcastSucceedsLocalAttribution) {
  DesyncHarness h(512, 0.3, 5, /*skew=*/12, Attribution::kLocalWindow);
  h.run();
  EXPECT_TRUE(h.protocol.succeeded());
}

TEST(DesyncProtocolTest, SkewedBroadcastSucceedsOracleAttribution) {
  DesyncHarness h(512, 0.3, 6, /*skew=*/12, Attribution::kOracle);
  h.run();
  EXPECT_TRUE(h.protocol.succeeded());
}

TEST(DesyncProtocolTest, DeterministicForSameSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    DesyncHarness h(256, 0.3, seed, 8);
    const Metrics metrics = h.run();
    return std::make_pair(metrics.flipped,
                          h.protocol.population().count(Opinion::kOne));
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
}

TEST(DesyncProtocolTest, NoMessagesOutsideContainers) {
  // Sends in the first D rounds can only come from phase 0's send window;
  // in particular nothing is sent before the source wakes.
  const std::size_t n = 64;
  const Params p = Params::calibrated(n, 0.3);
  const StreamKey key = trial_stream_key(8, 0);
  DesyncConfig config;
  config.base = broadcast_config();
  config.max_skew = 10;
  config.wake.assign(n, 0);
  config.wake[0] = 10;  // the source wakes last
  DesyncBreatheProtocol protocol(p, config, key);
  std::vector<Message> sends;
  for (Round g = 0; g < 10; ++g) {
    sends.clear();
    protocol.collect_sends(g, sends);
    EXPECT_TRUE(sends.empty()) << "round " << g;
  }
  sends.clear();
  protocol.collect_sends(10, sends);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].sender, 0u);
}

TEST(DesyncProtocolTest, MessagesBeforeWakeAreLost) {
  const std::size_t n = 64;
  const Params p = Params::calibrated(n, 0.3);
  const StreamKey key = trial_stream_key(9, 0);
  DesyncConfig config;
  config.base = broadcast_config();
  config.max_skew = 20;
  config.wake.assign(n, 0);
  config.wake[5] = 20;
  DesyncBreatheProtocol protocol(p, config, key);
  protocol.deliver(5, Opinion::kOne, /*g=*/3);  // before agent 5 wakes
  // Walk past phase 0's container end for every wake class.
  const Round far = p.stage1().beta_s + 3 * 20 + 5;
  for (Round g = 0; g < far; ++g) protocol.end_round(g);
  EXPECT_FALSE(protocol.population().has_opinion(5));
}

TEST(DesyncProtocolTest, MessageCountsUnchangedByskew) {
  // Theorem 3.1: desync costs rounds, not messages. Every agent still
  // sends in exactly the same number of rounds (its phase lengths), so the
  // totals should match the synchronous run closely (exactly, in fact,
  // because sends depend only on local schedules).
  DesyncHarness sync_h(256, 0.3, 10, 0);
  const Metrics sync_m = sync_h.run();
  // Local-window attribution can promote some agents into earlier levels
  // near container edges (they then send in more phases), so the count is
  // only approximately preserved.
  DesyncHarness local_h(256, 0.3, 10, 16, Attribution::kLocalWindow);
  const Metrics local_m = local_h.run();
  const double local_ratio = static_cast<double>(local_m.messages_sent) /
                             static_cast<double>(sync_m.messages_sent);
  EXPECT_NEAR(local_ratio, 1.0, 0.15);
  EXPECT_GT(local_m.rounds, sync_m.rounds);
  // Oracle attribution assigns every message its true phase, so levels —
  // and with them the send counts — match the synchronous run closely.
  DesyncHarness oracle_h(256, 0.3, 10, 16, Attribution::kOracle);
  const Metrics oracle_m = oracle_h.run();
  const double oracle_ratio = static_cast<double>(oracle_m.messages_sent) /
                              static_cast<double>(sync_m.messages_sent);
  EXPECT_NEAR(oracle_ratio, 1.0, 0.05);
}

/// Forwards to `inner`, but emits each round's sends in reverse order. The
/// engine touches recipients in send order, so this permutes the order of
/// the round's deliver() calls while every keyed draw stays the same.
class ReversedSends final : public Protocol {
 public:
  explicit ReversedSends(Protocol& inner) : inner_(inner) {}

  void collect_sends(Round g, std::vector<Message>& out) override {
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    inner_.collect_sends(g, out);
    std::reverse(out.begin() + first, out.end());
  }
  void deliver(AgentId to, Opinion bit, Round g) override {
    inner_.deliver(to, bit, g);
  }
  void end_round(Round g) override { inner_.end_round(g); }
  [[nodiscard]] bool done(Round g) const override { return inner_.done(g); }
  [[nodiscard]] double current_bias() const override {
    return inner_.current_bias();
  }
  [[nodiscard]] std::size_t current_opinionated() const override {
    return inner_.current_opinionated();
  }

 private:
  Protocol& inner_;
};

TEST(DesyncProtocolTest, DeliveryOrderDoesNotChangeOutcome) {
  // The Stage I reservoir coin is keyed by (global round, agent) and the
  // Stage II subset by (phase, agent): no draw depends on which message a
  // round delivers first, so the outcome cannot either.
  const std::size_t n = 512;
  const double eps = 0.2;
  const Params p = Params::calibrated(n, eps);
  DesyncConfig config;
  config.base = broadcast_config();
  config.max_skew = 4;
  config.wake.resize(n);
  for (AgentId a = 0; a < n; ++a) config.wake[a] = a % 5;
  const StreamKey key = trial_stream_key(5, 0);

  struct Outcome {
    std::vector<StageOnePhaseStats> stage1;
    std::vector<int> opinions;  ///< -1: no opinion
  };
  auto run_once = [&](bool reversed) {
    BinarySymmetricChannel channel(eps);
    Engine engine(n, channel, key);
    DesyncBreatheProtocol protocol(p, config, key);
    ReversedSends wrapped(protocol);
    engine.run(reversed ? static_cast<Protocol&>(wrapped) : protocol,
               protocol.total_rounds());
    Outcome outcome{protocol.stage1_stats(), {}};
    for (AgentId a = 0; a < n; ++a) {
      const Population& pop = protocol.population();
      outcome.opinions.push_back(
          pop.has_opinion(a) ? static_cast<int>(pop.opinion(a)) : -1);
    }
    return outcome;
  };
  const Outcome forward = run_once(false);
  const Outcome backward = run_once(true);
  ASSERT_EQ(forward.stage1.size(), backward.stage1.size());
  for (std::size_t j = 0; j < forward.stage1.size(); ++j) {
    EXPECT_EQ(forward.stage1[j].newly_activated,
              backward.stage1[j].newly_activated) << "phase " << j;
    EXPECT_EQ(forward.stage1[j].newly_correct,
              backward.stage1[j].newly_correct) << "phase " << j;
    EXPECT_EQ(forward.stage1[j].total_activated,
              backward.stage1[j].total_activated) << "phase " << j;
  }
  EXPECT_EQ(forward.opinions, backward.opinions);
}

TEST(ClockSyncTest, RejectsBadArguments) {
  const StreamKey key = trial_stream_key(11, 0);
  EXPECT_THROW(run_clock_sync(1, 0, key), std::invalid_argument);
  EXPECT_THROW(run_clock_sync(64, 64, key), std::invalid_argument);
}

TEST(ClockSyncTest, ActivatesEveryoneAndBoundsSkew) {
  const StreamKey key = trial_stream_key(12, 0);
  const std::size_t n = 1024;
  const ClockSyncResult result = run_clock_sync(n, 0, key);
  EXPECT_TRUE(result.all_activated);
  EXPECT_EQ(result.wake.size(), n);
  EXPECT_EQ(*std::min_element(result.wake.begin(), result.wake.end()), 0u);
  // Section 3.2: skew is O(log n) — generous constant for the tail.
  const auto log_n = static_cast<Round>(std::log2(n));
  EXPECT_LE(result.skew, 6 * log_n) << "skew " << result.skew;
  EXPECT_GT(result.messages, n);  // everyone broadcast for a while
}

TEST(ClockSyncTest, SkewMatchesWakeSpread) {
  const StreamKey key = trial_stream_key(13, 0);
  const ClockSyncResult result = run_clock_sync(256, 3, key);
  const Round max_wake =
      *std::max_element(result.wake.begin(), result.wake.end());
  EXPECT_EQ(result.skew, max_wake);
}

TEST(ClockSyncTest, EndToEndDesyncAfterClockSync) {
  // The full Section 3 pipeline: clock-sync pre-phase, then the modified
  // algorithm with D = measured skew.
  const std::size_t n = 512;
  const double eps = 0.3;
  const ClockSyncResult sync = run_clock_sync(n, 0, trial_stream_key(14, 0));
  ASSERT_TRUE(sync.all_activated);

  const Params p = Params::calibrated(n, eps);
  DesyncConfig config;
  config.base = broadcast_config();
  config.wake = sync.wake;
  config.max_skew = sync.skew;

  BinarySymmetricChannel channel(eps);
  Engine engine(n, channel, trial_stream_key(15, 0));
  DesyncBreatheProtocol protocol(p, config, trial_stream_key(16, 0));
  engine.run(protocol, protocol.total_rounds());
  EXPECT_TRUE(protocol.succeeded());
}

}  // namespace
}  // namespace flip
