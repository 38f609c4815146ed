#include "sim/engine.hpp"

#include <stdexcept>

namespace flip {

std::optional<EngineMode> parse_engine_mode(std::string_view name) noexcept {
  if (name == "batch") return EngineMode::kBatch;
  if (name == "classic") return EngineMode::kClassic;
  if (name == "surrogate") return EngineMode::kSurrogate;
  return std::nullopt;
}

Engine::Engine(std::size_t n, NoiseChannel& channel, const StreamKey& key,
               EngineOptions options)
    : mailbox_(n), channel_(channel), key_(key), options_(options) {
  send_buffer_.reserve(n);
}

Metrics Engine::run(Protocol& protocol, Round max_rounds) {
  Metrics metrics;
  const std::size_t n = mailbox_.population();
  const ResolvedTopology topo =
      ResolvedTopology::resolve(options_.topology, n);
  const ChurnSpec& churn = options_.churn;
  const bool churn_on = churn.enabled();
  if (churn_on) {
    awake_.assign(n, 1);
    if (churn.start_asleep > 0.0) {
      for (AgentId a = 0; a < n; ++a) {
        if (churn_starts_asleep(churn, key_, a)) awake_[a] = 0;
      }
    }
  }
  for (Round r = 0; r < max_rounds; ++r) {
    send_buffer_.clear();
    protocol.collect_sends(r, send_buffer_);

    // Round-scoped environment events first: liveness transitions (one
    // keyed draw per agent) and the channel's round state (the burst
    // lottery). Both are pure functions of (trial key, round, agent), so
    // the sharded engine replays them identically.
    if (churn_on) {
      const StreamKey churn_key =
          round_stream_key(key_, RngPurpose::kChurn, r);
      for (AgentId a = 0; a < n; ++a) {
        awake_[a] = churn_step(churn, churn_key, a, awake_[a] != 0) ? 1 : 0;
      }
    }
    channel_.begin_round(key_, r);

    mailbox_.reset();
    const StreamKey route_key = round_stream_key(key_, RngPurpose::kRoute, r);
    // The rewired topologies read the kTopology lane; the others ignore the
    // key entirely (and complete skips neighbor lookup altogether inside
    // recipient()).
    const StreamKey topo_key =
        topo.keyed() ? topo.round_key(key_, r) : StreamKey{};
    std::uint64_t sent = 0;
    for (const Message& msg : send_buffer_) {
      if (msg.sender >= n) {
        throw std::out_of_range("Engine: sender id out of range");
      }
      // An asleep sender's message never leaves it: unrouted, uncounted,
      // and no kRoute draws consumed (the stream is per-agent, so skipping
      // shifts nobody else's draws).
      if (churn_on && awake_[msg.sender] == 0) continue;
      ++sent;
      // The sender's stream: word 0.. the recipient index (uniform over
      // its out-neighbors — the n-1 other agents on the complete graph),
      // next word the acceptance priority.
      CounterRng rng(route_key, msg.sender);
      const AgentId to = topo.recipient(rng, topo_key, msg.sender);
      mailbox_.offer(to, msg.sender, msg.bit,
                     acceptance_word(rng(), msg.bit, msg.sender));
    }
    metrics.messages_sent += sent;

    // Noise is applied to the accepted message only: flips are independent
    // per message and dropped messages are never observed, so flipping after
    // acceptance is distributionally identical to flipping each arrival
    // (and much cheaper). The draw comes from the RECIPIENT's kChannel
    // stream, so it does not depend on which sender won acceptance.
    const StreamKey channel_key =
        round_stream_key(key_, RngPurpose::kChannel, r);
    for (AgentId to : mailbox_.recipients()) {
      // An asleep recipient loses its accepted message (a drop, like a
      // collision); no kChannel draw is made on its behalf.
      if (churn_on && awake_[to] == 0) {
        ++metrics.dropped;
        continue;
      }
      const Message& msg = mailbox_.accepted(to);
      CounterRng rng(channel_key, to);
      const std::optional<Opinion> seen = channel_.transmit(msg.bit, rng);
      if (!seen) {
        ++metrics.erased;
        continue;
      }
      if (*seen != msg.bit) ++metrics.flipped;
      ++metrics.delivered;
      protocol.deliver(to, *seen, r);
    }
    metrics.dropped += mailbox_.dropped_this_round();

    protocol.end_round(r);
    metrics.rounds = r + 1;

    if (options_.probe_every != 0 && r % options_.probe_every == 0) {
      metrics.bias_series.push_back({r, protocol.current_bias()});
      metrics.activated_series.push_back(
          {r, static_cast<double>(protocol.current_opinionated())});
    }

    if (protocol.done(r)) break;
  }
  return metrics;
}

}  // namespace flip
