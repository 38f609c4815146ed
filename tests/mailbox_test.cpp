#include "sim/mailbox.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/topology.hpp"
#include "util/rng.hpp"

namespace flip {
namespace {

/// One message through the route every engine uses (sim/engine.cpp): the
/// sender's kRoute stream of round `r` draws the recipient over the
/// complete graph, then the acceptance priority.
void push(Mailbox& mailbox, const StreamKey& key, std::uint64_t r,
          const Message& msg) {
  const ResolvedTopology topo =
      ResolvedTopology::resolve(TopologySpec{}, mailbox.population());
  CounterRng rng(round_stream_key(key, RngPurpose::kRoute, r), msg.sender);
  const AgentId to = topo.recipient(rng, StreamKey{}, msg.sender);
  mailbox.offer(to, msg.sender, msg.bit,
                acceptance_word(rng(), msg.bit, msg.sender));
}

TEST(MailboxTest, RejectsTinyPopulation) {
  EXPECT_THROW(Mailbox(1), std::invalid_argument);
}

TEST(MailboxTest, PushNeverDeliversToSelf) {
  Mailbox mailbox(5);
  const StreamKey key = trial_stream_key(21, 0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    mailbox.reset();
    push(mailbox, key, i, Message{2, Opinion::kOne});
    ASSERT_EQ(mailbox.recipients().size(), 1u);
    EXPECT_NE(mailbox.recipients()[0], 2u);
  }
}

TEST(MailboxTest, RecipientsAreUniformOverOthers) {
  Mailbox mailbox(4);
  const StreamKey key = trial_stream_key(22, 0);
  std::map<AgentId, int> counts;
  constexpr int kTrials = 90000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    mailbox.reset();
    push(mailbox, key, i, Message{0, Opinion::kOne});
    ++counts[mailbox.recipients()[0]];
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [to, count] : counts) {
    EXPECT_NEAR(count, kTrials / 3, kTrials / 60) << "recipient " << to;
  }
}

TEST(MailboxTest, KeepsExactlyOnePerRecipientPerRound) {
  Mailbox mailbox(3);
  CounterRng rng(trial_stream_key(23, 0));
  mailbox.reset();
  // Agents 0 and 1 both target agent 2 directly.
  mailbox.offer(2, 0, Opinion::kZero, rng());
  mailbox.offer(2, 1, Opinion::kOne, rng());
  mailbox.offer(2, 0, Opinion::kZero, rng());
  EXPECT_EQ(mailbox.recipients().size(), 1u);
  EXPECT_EQ(mailbox.arrivals(2), 3u);
  EXPECT_EQ(mailbox.pushed_this_round(), 3u);
  EXPECT_EQ(mailbox.dropped_this_round(), 2u);
}

TEST(MailboxTest, ResetClearsRoundState) {
  Mailbox mailbox(3);
  CounterRng rng(trial_stream_key(25, 0));
  mailbox.offer(1, 0, Opinion::kOne, rng());
  mailbox.reset();
  EXPECT_TRUE(mailbox.recipients().empty());
  EXPECT_EQ(mailbox.arrivals(1), 0u);
  EXPECT_EQ(mailbox.pushed_this_round(), 0u);
  EXPECT_EQ(mailbox.dropped_this_round(), 0u);
}

TEST(MailboxTest, ManySendersAllDeliveredSomewhere) {
  Mailbox mailbox(100);
  const StreamKey key = trial_stream_key(26, 0);
  mailbox.reset();
  for (AgentId s = 0; s < 100; ++s) {
    push(mailbox, key, 0, Message{s, Opinion::kZero});
  }
  EXPECT_EQ(mailbox.pushed_this_round(), 100u);
  EXPECT_EQ(mailbox.recipients().size() + mailbox.dropped_this_round(), 100u);
  EXPECT_GT(mailbox.recipients().size(), 40u);  // ~ (1-1/e) * 100
  EXPECT_LT(mailbox.recipients().size(), 90u);
}

TEST(MailboxTest, TouchOrderHasNoDuplicates) {
  Mailbox mailbox(10);
  CounterRng rng(trial_stream_key(27, 0));
  mailbox.reset();
  for (int i = 0; i < 200; ++i) {
    const auto to = static_cast<AgentId>(1 + uniform_index(rng, 9));
    mailbox.offer(to, 0, Opinion::kOne, rng());
  }
  std::vector<bool> seen(10, false);
  for (AgentId a : mailbox.recipients()) {
    EXPECT_FALSE(seen[a]) << "duplicate recipient " << a;
    seen[a] = true;
  }
}

TEST(MailboxTest, OfferKeepsMinimumPriorityPair) {
  Mailbox mailbox(8);
  mailbox.offer(3, 0, Opinion::kZero, 500);
  mailbox.offer(3, 1, Opinion::kOne, 100);
  mailbox.offer(3, 2, Opinion::kZero, 900);
  ASSERT_EQ(mailbox.recipients().size(), 1u);
  EXPECT_EQ(mailbox.accepted(3).sender, 1u);
  EXPECT_EQ(mailbox.accepted(3).bit, Opinion::kOne);
  EXPECT_EQ(mailbox.arrivals(3), 3u);
  EXPECT_EQ(mailbox.dropped_this_round(), 2u);
}

TEST(MailboxTest, OfferBreaksPriorityTiesOnSenderId) {
  Mailbox a(8);
  a.offer(5, 4, Opinion::kOne, 42);
  a.offer(5, 2, Opinion::kZero, 42);
  EXPECT_EQ(a.accepted(5).sender, 2u);
  Mailbox b(8);
  b.offer(5, 2, Opinion::kZero, 42);
  b.offer(5, 4, Opinion::kOne, 42);
  EXPECT_EQ(b.accepted(5).sender, 2u);
}

TEST(MailboxTest, OfferAcceptanceIsArrivalOrderIndependent) {
  // The determinism contract rests on this: min((priority, sender)) is a
  // commutative reduction, so any interleaving of a round's offers — the
  // sharded engine produces many — keeps the identical winner per
  // recipient.
  struct Offer {
    AgentId to;
    AgentId sender;
    Opinion bit;
    std::uint64_t priority;
  };
  std::vector<Offer> offers;
  CounterRng rng(trial_stream_key(99, 0));
  for (AgentId sender = 0; sender < 64; ++sender) {
    offers.push_back(Offer{static_cast<AgentId>(uniform_index(rng, 16)),
                           sender, static_cast<Opinion>(sender & 1), rng()});
  }
  Mailbox forward(16);
  for (const Offer& o : offers) {
    forward.offer(o.to, o.sender, o.bit, o.priority);
  }
  Mailbox backward(16);
  for (auto it = offers.rbegin(); it != offers.rend(); ++it) {
    backward.offer(it->to, it->sender, it->bit, it->priority);
  }
  ASSERT_EQ(forward.recipients().size(), backward.recipients().size());
  for (const AgentId to : forward.recipients()) {
    EXPECT_EQ(forward.accepted(to).sender, backward.accepted(to).sender);
    EXPECT_EQ(forward.accepted(to).bit, backward.accepted(to).bit);
    EXPECT_EQ(forward.arrivals(to), backward.arrivals(to));
  }
  EXPECT_EQ(forward.dropped_this_round(), backward.dropped_this_round());
}

TEST(MailboxTest, OfferAcceptanceIsUniformAmongArrivals) {
  // With i.i.d. uniform priorities each of k arrivals wins w.p. 1/k.
  constexpr int kRounds = 30000;
  CounterRng rng(trial_stream_key(7, 0));
  std::array<int, 3> wins{};
  for (int i = 0; i < kRounds; ++i) {
    Mailbox mailbox(4);
    for (AgentId sender = 0; sender < 3; ++sender) {
      mailbox.offer(3, sender, Opinion::kOne, rng());
    }
    ++wins[mailbox.accepted(3).sender];
  }
  for (const int w : wins) {
    EXPECT_NEAR(static_cast<double>(w) / kRounds, 1.0 / 3.0, 0.01);
  }
}

}  // namespace
}  // namespace flip
