#pragma once
// The synchronous round loop of the Flip model (Section 1.3.2):
//   every round, each agent either waits or pushes its one-bit message to a
//   uniformly random other agent; each recipient accepts one uniformly
//   random arrival; the accepted bit is flipped with probability 1/2 - eps.
//
// Protocols plug in through the Protocol interface below. The engine owns
// delivery, noise, and metrics; protocols own agent state and decisions.
// This split keeps the per-round inner loops non-virtual inside protocol
// implementations (collect_sends fills a flat buffer) while the engine stays
// generic over protocols and channels.
//
// Determinism contract (counter-keyed streams): every random draw the
// engine makes in round r on behalf of agent a comes from the stateless
// stream CounterRng(round_stream_key(trial_key, purpose, r), a) —
//   * kRoute   (sender a):   recipient choice, then acceptance priority;
//   * kChannel (recipient a): the noise applied to the accepted message.
// A draw is a pure function of (trial_key, round, agent, purpose), never of
// how many draws other agents made, so results are bit-identical across
// engine substrates (this Engine vs sim/batch_engine.hpp), thread counts,
// and shard counts. Acceptance among a recipient's arrivals picks the
// minimum (priority, sender) pair — a commutative reduction, uniform among
// arrivals — instead of order-dependent reservoir sampling.

#include <optional>
#include <string_view>
#include <vector>

#include "core/environment.hpp"
#include "core/topology.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

namespace flip {

/// A distributed algorithm in the Flip model. One instance simulates the
/// whole population's agent-local state for one execution.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Appends one Message per agent that chooses to SEND in round `r`
  /// (Section 1.3.2: an agent may instead wait). Called once per round.
  /// At most one message per sender per round (the model's rule): the
  /// engine keys each message's routing draws by (round, sender), so a
  /// second same-round send from one agent would reuse the first's stream.
  virtual void collect_sends(Round r, std::vector<Message>& out) = 0;

  /// The (post-noise) bit accepted by agent `to` in round `r`. Called after
  /// collect_sends, once per recipient that accepted a message.
  virtual void deliver(AgentId to, Opinion bit, Round r) = 0;

  /// End-of-round hook: phase transitions, opinion updates.
  virtual void end_round(Round r) = 0;

  /// True once the protocol has terminated (engine stops after this round).
  [[nodiscard]] virtual bool done(Round r) const = 0;

  /// Current bias toward the correct opinion, for the metrics probes.
  /// Protocols that don't track opinions may return 0.
  [[nodiscard]] virtual double current_bias() const = 0;

  /// Number of agents currently holding an opinion (activation probe).
  [[nodiscard]] virtual std::size_t current_opinionated() const = 0;
};

/// Engine configuration knobs.
struct EngineOptions {
  /// Record bias/activated time series every `probe_every` rounds
  /// (0 = never). Probing costs one virtual call per probe, not per agent.
  Round probe_every = 0;
  /// Agent churn (core/environment.hpp). When enabled, every agent's
  /// liveness advances once per round from its (trial, round, agent,
  /// kChurn) stream; asleep agents neither send (their collect_sends
  /// messages are discarded before routing, unrouted and uncounted) nor
  /// accept (their accepted message is counted as dropped, and no kChannel
  /// draw is made for them). Identical semantics on every substrate.
  ChurnSpec churn{};
  /// Interaction graph (core/topology.hpp). The default complete graph is
  /// the zero-cost identity path: recipient draws are bit-for-bit the
  /// historical uniform_index(n-1) formula. Sparse kinds restrict each
  /// sender's recipient draw to its out-neighbor set, resolved against n
  /// at run() time (throws std::invalid_argument if the family does not
  /// fit the population). Identical neighbor sets on every substrate.
  TopologySpec topology{};
};

/// Which simulation substrate a workload runs on. kBatch is the breathe
/// protocol's packed fast path (sim/batch_engine.hpp; every other protocol
/// runs on this Engine in either mode); both exact
/// substrates draw from the same counter-keyed per-agent streams, so the
/// two modes produce identical metrics for the same (seed, trial) —
/// kClassic exists to prove that, and to time the difference. kSurrogate
/// is NOT an exact substrate: it integrates the mean-field state evolution
/// (sim/surrogate_engine.hpp) and answers in closed form, milliseconds at
/// n = 10^9 — held within stated error bands of kBatch by the validation
/// harness (flipsim --validate-surrogate), never bit-equal to it.
enum class EngineMode { kBatch, kClassic, kSurrogate };

[[nodiscard]] constexpr std::string_view engine_mode_name(
    EngineMode mode) noexcept {
  switch (mode) {
    case EngineMode::kClassic:
      return "classic";
    case EngineMode::kSurrogate:
      return "surrogate";
    case EngineMode::kBatch:
      break;
  }
  return "batch";
}

/// Parses "batch" / "classic" / "surrogate"; nullopt on anything else.
[[nodiscard]] std::optional<EngineMode> parse_engine_mode(
    std::string_view name) noexcept;

class Engine {
 public:
  /// The engine borrows the channel, which must outlive run() calls. All
  /// engine-level randomness derives from `key` (one trial's root key; see
  /// trial_stream_key).
  Engine(std::size_t n, NoiseChannel& channel, const StreamKey& key,
         EngineOptions options = {});

  /// Runs `protocol` until it reports done() or `max_rounds` elapses.
  /// Returns the metrics of this execution. A fresh Metrics is produced per
  /// call; the engine itself is reusable across runs.
  Metrics run(Protocol& protocol, Round max_rounds);

  [[nodiscard]] std::size_t population() const noexcept {
    return mailbox_.population();
  }

 private:
  Mailbox mailbox_;
  NoiseChannel& channel_;
  StreamKey key_;
  EngineOptions options_;
  std::vector<Message> send_buffer_;
  /// Per-agent liveness under churn (unused when churn is disabled). The
  /// sharded engine keeps the same state in its Population; here a flat
  /// byte array suffices — the reference loop is sequential.
  std::vector<std::uint8_t> awake_;
};

}  // namespace flip
