#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <utility>

#include "net/channel.hpp"

namespace flip {
namespace {

/// Minimal protocol: agent 0 sends its bit every round for a fixed number
/// of rounds; receivers remember the last bit they saw.
class PingProtocol : public Protocol {
 public:
  PingProtocol(std::size_t n, Round duration)
      : duration_(duration), last_seen_(n, -1) {}

  void collect_sends(Round, std::vector<Message>& out) override {
    out.push_back(Message{0, Opinion::kOne});
  }
  void deliver(AgentId to, Opinion bit, Round) override {
    last_seen_[to] = bit == Opinion::kOne ? 1 : 0;
    ++delivered_;
  }
  void end_round(Round) override { ++round_ends_; }
  [[nodiscard]] bool done(Round r) const override {
    return r + 1 >= duration_;
  }
  [[nodiscard]] double current_bias() const override { return 0.0; }
  [[nodiscard]] std::size_t current_opinionated() const override {
    return delivered_;
  }

  Round duration_;
  std::vector<int> last_seen_;
  std::size_t delivered_ = 0;
  Round round_ends_ = 0;
};

/// Protocol whose single sender has an out-of-range id.
class RogueProtocol : public PingProtocol {
 public:
  using PingProtocol::PingProtocol;
  void collect_sends(Round, std::vector<Message>& out) override {
    out.push_back(Message{1000, Opinion::kOne});
  }
};

TEST(EngineTest, RunsExactlyUntilDone) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(31, 0);
  Engine engine(8, channel, key);
  PingProtocol protocol(8, 25);
  const Metrics metrics = engine.run(protocol, 1000);
  EXPECT_EQ(metrics.rounds, 25u);
  EXPECT_EQ(protocol.round_ends_, 25u);
  EXPECT_EQ(metrics.messages_sent, 25u);
  EXPECT_EQ(metrics.delivered, 25u);
  EXPECT_EQ(metrics.dropped, 0u);
}

TEST(EngineTest, MaxRoundsCapsExecution) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(32, 0);
  Engine engine(8, channel, key);
  PingProtocol protocol(8, 1000);
  const Metrics metrics = engine.run(protocol, 10);
  EXPECT_EQ(metrics.rounds, 10u);
}

TEST(EngineTest, NoiseFlipsAreCounted) {
  BinarySymmetricChannel channel(0.25);  // flip prob 0.25
  const StreamKey key = trial_stream_key(33, 0);
  Engine engine(8, channel, key);
  PingProtocol protocol(8, 40000);
  const Metrics metrics = engine.run(protocol, 40000);
  EXPECT_EQ(metrics.delivered, 40000u);
  EXPECT_NEAR(static_cast<double>(metrics.flipped) /
                  static_cast<double>(metrics.delivered),
              0.25, 0.01);
}

TEST(EngineTest, ErasuresAreCountedAndNotDelivered) {
  ErasureChannel channel(0.5, 0.4);  // no flips, 40% erased
  const StreamKey key = trial_stream_key(34, 0);
  Engine engine(8, channel, key);
  PingProtocol protocol(8, 20000);
  const Metrics metrics = engine.run(protocol, 20000);
  EXPECT_EQ(metrics.delivered + metrics.erased, 20000u);
  EXPECT_NEAR(static_cast<double>(metrics.erased) / 20000.0, 0.4, 0.02);
}

TEST(EngineTest, OutOfRangeSenderThrows) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(35, 0);
  Engine engine(8, channel, key);
  RogueProtocol protocol(8, 5);
  EXPECT_THROW(engine.run(protocol, 5), std::out_of_range);
}

TEST(EngineTest, DeterministicForSameSeed) {
  BinarySymmetricChannel channel(0.2);
  auto run_once = [&](std::uint64_t seed) {
    const StreamKey key = trial_stream_key(seed, 0);
    Engine engine(16, channel, key);
    PingProtocol protocol(16, 500);
    const Metrics metrics = engine.run(protocol, 500);
    return std::make_pair(metrics.flipped, protocol.last_seen_);
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(EngineTest, ProbeRecordsSeries) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(36, 0);
  EngineOptions options;
  options.probe_every = 10;
  Engine engine(8, channel, key, options);
  PingProtocol protocol(8, 100);
  const Metrics metrics = engine.run(protocol, 100);
  EXPECT_EQ(metrics.bias_series.size(), 10u);
  EXPECT_EQ(metrics.activated_series.size(), 10u);
  EXPECT_EQ(metrics.bias_series.front().round, 0u);
  EXPECT_EQ(metrics.bias_series.back().round, 90u);
}

/// Sends from agents [0, senders) every round — in ascending or descending
/// collect_sends order depending on `reversed`.
class FanProtocol : public PingProtocol {
 public:
  FanProtocol(std::size_t n, Round duration, AgentId senders, bool reversed)
      : PingProtocol(n, duration), senders_(senders), reversed_(reversed) {}

  void collect_sends(Round, std::vector<Message>& out) override {
    for (AgentId i = 0; i < senders_; ++i) {
      const AgentId a = reversed_ ? senders_ - 1 - i : i;
      out.push_back(Message{a, static_cast<Opinion>(a & 1)});
    }
  }

 private:
  AgentId senders_;
  bool reversed_;
};

// The counter-keyed contract: every draw is a function of (key, round,
// agent, purpose), and acceptance is a commutative min — so the ORDER a
// protocol emits its sends in cannot change anything observable. (Under
// the old same-draw-order contract this test would fail by construction.)
TEST(EngineTest, SendOrderDoesNotChangeResults) {
  BinarySymmetricChannel channel(0.2);
  const StreamKey key = trial_stream_key(0x04de4, 0);
  auto run_once = [&](bool reversed) {
    Engine engine(32, channel, key);
    FanProtocol protocol(32, 300, 24, reversed);
    const Metrics metrics = engine.run(protocol, 300);
    return std::make_tuple(metrics.flipped, metrics.delivered,
                           metrics.dropped, protocol.last_seen_);
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

// Engines seeded from the same key are replayable; distinct trial keys
// diverge.
TEST(EngineTest, StreamKeyedConstructionIsDeterministic) {
  BinarySymmetricChannel channel(0.2);
  auto run_once = [&](const StreamKey& key) {
    Engine engine(16, channel, key);
    PingProtocol protocol(16, 500);
    const Metrics metrics = engine.run(protocol, 500);
    return std::make_pair(metrics.flipped, protocol.last_seen_);
  };
  const StreamKey a = trial_stream_key(77, 3);
  const StreamKey b = trial_stream_key(77, 4);
  EXPECT_EQ(run_once(a), run_once(a));
  EXPECT_NE(run_once(a), run_once(b));
}

TEST(EngineTest, ReusableAcrossRuns) {
  PerfectChannel channel;
  const StreamKey key = trial_stream_key(37, 0);
  Engine engine(8, channel, key);
  PingProtocol first(8, 5);
  PingProtocol second(8, 7);
  EXPECT_EQ(engine.run(first, 100).rounds, 5u);
  EXPECT_EQ(engine.run(second, 100).rounds, 7u);
}

}  // namespace
}  // namespace flip
