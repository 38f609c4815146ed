#pragma once
// Batched fast-path simulation engine, with optional intra-trial sharding.
//
// The classic Engine (sim/engine.hpp) pays, per accepted message, a virtual
// channel call, a virtual protocol deliver, and — per trial — a fresh
// Mailbox/Population/protocol allocation. BatchEngine removes all of that
// for the paper's two-stage breathe protocol — the hot workload behind
// broadcast / majority / boost — and on top partitions one trial's agents
// into S shards that execute each round's route and deliver phases in
// parallel. Every other protocol (desync, the baselines) runs on the
// classic Engine, the oracle this engine is held bit-equal to.
//
// run_breathe() is a hand-packed structure-of-arrays implementation of
// Engine + BreatheProtocol. Each round runs two shard-parallel phases over
// the persistent ThreadPool workers:
//    route   — every shard walks its own materialized sender list, draws
//              each sender's recipient + acceptance priority from the
//              sender's counter stream, and scatters the message into the
//              destination shard's inbox bucket. The priority is drawn
//              only in ranked rounds: a round is unranked when every
//              arrival a recipient could read carries the same bit (all
//              senders agree, or Stage I with every agent opinionated,
//              where deliver reads no kept bit), so any arrival may win;
//    deliver — every shard min-combines the arrivals for its agent range
//              (smallest (priority, sender) pair wins — a commutative
//              reduction, so any arrival order gives the same winner),
//              then applies the recipient-keyed channel flip and bumps
//              the packed per-agent counters.
// Phase ends merge shard partials in shard order (integer sums, so the
// merge is exact) and run the per-agent Stage II subset draws
// shard-parallel from per-agent streams.
//
// Exactness contract: every random draw comes from the counter-based
// per-agent stream named by (trial key, round, agent, purpose) — see
// util/rng.hpp — never from a shared sequential stream. A draw is a pure
// function of its key, so for the same (seed, trial) the classic Engine,
// this engine with 1 shard, and this engine with any other shard count
// produce bit-identical Metrics, opinions, and phase stats, on any thread
// count. tests/batch_engine_test.cpp enforces classic == batch for every
// registry entry and shard-count invariance for the breathe scenarios;
// treat any divergence as a bug in this file.
//
// One BatchEngine is meant to live per worker thread and run a whole block
// of K trials of a scenario cell back to back (it lives in the thread's
// TrialArena, sim/trial_arena.hpp); every buffer is sized once and
// recycled, so trials after the first are allocation-free when the shard
// phases run inline.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/breathe.hpp"
#include "core/params.hpp"
#include "core/topology.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "sim/population.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace flip {

/// Everything one run_breathe() execution yields. Mirrors what the classic
/// path exposes through Metrics + BreatheProtocol introspection.
struct BreatheFastResult {
  Metrics metrics;
  Round protocol_rounds = 0;  ///< scheduled budget this run executed under
  bool success = false;  ///< every agent ended holding the correct opinion
  std::size_t opinionated = 0;
  double correct_fraction = 0.0;
  double final_bias = 0.0;
  std::vector<StageOnePhaseStats> stage1;
  std::vector<StageTwoPhaseStats> stage2;

  /// Reinitializes for the next execution, keeping every vector's capacity
  /// — the TrialArena pooling contract (sim/trial_arena.hpp): a result
  /// object that cycles through reset()/run_breathe() settles into a
  /// steady state with zero heap allocations per trial.
  void reset() noexcept {
    metrics.clear();
    protocol_rounds = 0;
    success = false;
    opinionated = 0;
    correct_fraction = 0.0;
    final_bias = 0.0;
    stage1.clear();
    stage2.clear();
  }
};

/// Execution knobs for run_breathe(). Agent churn rides in
/// engine.churn: the sharded path advances each shard's agent block from
/// the per-(round, agent) kChurn streams and merges the liveness deltas
/// exactly, so results match the classic Engine bit for bit.
struct BreatheRunOptions {
  EngineOptions engine;
  /// Agent partitions per round phase. Results are bit-identical for every
  /// value (the determinism contract); >1 buys wall-clock on multi-core.
  std::size_t shards = 1;
  /// Workers the shard phases run on; nullptr (or shards <= 1) runs them
  /// inline on the calling thread.
  ThreadPool* pool = nullptr;
};

/// True iff run_breathe() can pack this schedule's counters (Stage II phase
/// lengths must fit the 21-bit packed fields, agent ids 31 bits). Callers
/// fall back to the classic Engine when this is false.
[[nodiscard]] bool breathe_fast_supported(const Params& params);

namespace detail {

/// The integer flip threshold of a BSC with advantage eps: the
/// bernoulli_threshold (util/rng.hpp) of the flip probability 1/2 - eps,
/// so `(rng() >> 11) < threshold` is exactly the channel's
/// bernoulli(rng, 0.5 - eps).
[[nodiscard]] inline std::uint64_t bsc_flip_threshold(double eps) noexcept {
  return bernoulli_threshold(0.5 - eps);
}

/// Per-message flip draw for the packed fast path, producing exactly the
/// decision the channel's transmit() makes from the same stream. BscFlip
/// turns `uniform_unit(rng) < p` into an integer compare (see
/// bsc_flip_threshold). One draw, no int-to-double conversion.
/// Every flip functor exposes begin_round(): a no-op for the static
/// channels, the schedule evaluation for the round-scoped one.
struct BscFlip {
  std::uint64_t threshold;
  explicit BscFlip(const BinarySymmetricChannel& channel)
      : threshold(bsc_flip_threshold(channel.eps())) {}
  void begin_round(const StreamKey&, Round) noexcept {}
  template <typename Rng>
  bool operator()(Rng& rng) const noexcept {
    return (rng() >> 11) < threshold;
  }
};

/// HeterogeneousChannel::transmit, minus the optional: same draws from the
/// same per-recipient stream.
struct HeterogeneousFlip {
  double eps;
  explicit HeterogeneousFlip(const HeterogeneousChannel& channel)
      : eps(channel.eps()) {}
  void begin_round(const StreamKey&, Round) noexcept {}
  template <typename Rng>
  bool operator()(Rng& rng) const noexcept {
    const double flip_prob = uniform_unit(rng) * (0.5 - eps);
    return bernoulli(rng, flip_prob);
  }
};

/// CorrelatedBurstChannel::transmit as an integer-threshold compare: the
/// round's eps comes from the same schedule evaluation (same kEnvironment
/// draw) the channel's begin_round performs, re-pinned here once per round,
/// so the per-message loop stays one draw + one compare like BscFlip.
struct ScheduledFlip {
  const EnvironmentSchedule* schedule;
  std::uint64_t threshold = 0;
  explicit ScheduledFlip(const CorrelatedBurstChannel& channel)
      : schedule(&channel.schedule()) {}
  void begin_round(const StreamKey& trial_key, Round r) noexcept {
    threshold = bsc_flip_threshold(schedule->eps_at(trial_key, r));
  }
  template <typename Rng>
  bool operator()(Rng& rng) const noexcept {
    return (rng() >> 11) < threshold;
  }
};

inline BscFlip make_flip(const BinarySymmetricChannel& channel) {
  return BscFlip(channel);
}
inline HeterogeneousFlip make_flip(const HeterogeneousChannel& channel) {
  return HeterogeneousFlip(channel);
}
inline ScheduledFlip make_flip(const CorrelatedBurstChannel& channel) {
  return ScheduledFlip(channel);
}

// Packed-layout constants. Send-list entries carry the opinion in bit 31
// next to a 31-bit agent id; the per-agent acceptance slot holds the
// smallest offered_word of the round: an acceptance_word (sim/mailbox.hpp,
// priority | opinion bit | sender) in ranked rounds, the bare entry in
// unranked ones.
inline constexpr std::uint32_t kSendBit = 0x8000'0000u;
inline constexpr std::uint32_t kAgentMask = ~kSendBit;
/// Slot sentinel for "no arrival yet": the maximum word, which no real
/// offered_word equals (its sender field would be 2^31 - 1 >= n).
inline constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// Per-agent counter layouts. Stage I accumulator: recv count in bits
// 0..62, kept bit in bit 63. Stage II accumulator: recv | ones |
// prefix-ones as three 21-bit fields (phase lengths are bounded by
// breathe_fast_supported).
inline constexpr int kKeptShift = 63;
inline constexpr std::uint64_t kS1RecvMask =
    (std::uint64_t{1} << kKeptShift) - 1;
inline constexpr int kOnesShift = 21;
inline constexpr int kPrefixShift = 42;
inline constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << 21) - 1;

/// One routed message in flight between a source and a destination shard.
struct RoutedMsg {
  std::uint64_t word;  ///< offered_word: [priority |] opinion bit | sender
  std::uint32_t to;    ///< recipient
};

// The per-message loops live in their own deliberately-not-inlined
// functions: inside the (large) templated round loop they would compete
// for registers with all the surrounding phase state, and a spill inside a
// 100M-iteration loop costs more than a call per round.

/// The min-combine acceptance step: keeps the smallest offered_word.
/// Commutative + associative, hence identical for any arrival order and
/// any shard partition. Returns the new touched count. Branch-free: the
/// slot store is unconditional (a select of the min — which arrival wins
/// is a random-priority coin, so a branch on the compare would mispredict
/// about half the time), and the touched append stores always and bumps on
/// first arrival (the sentinel is the max word, so the min alone also
/// decides first-touch wins).
inline std::size_t combine(std::uint32_t to, std::uint64_t word,
                           std::uint64_t* __restrict__ slot,
                           AgentId* __restrict__ tdata, std::size_t tsize) {
  const std::uint64_t cur = slot[to];
  tdata[tsize] = to;
  tsize += cur == kEmptySlot;
  slot[to] = word < cur ? word : cur;
  return tsize;
}

/// Counts one shard's route pass produces: recipients touched (in-place
/// combine only) and messages actually sent (== the sender-list size unless
/// churn put senders to sleep).
struct RoutePartial {
  std::size_t touched = 0;
  std::uint64_t sent = 0;
};

/// Counts one shard's deliver pass produces: messages whose bit flipped and
/// accepted messages lost to an asleep recipient.
struct DeliverPartial {
  std::uint64_t flipped = 0;
  std::uint64_t asleep_drops = 0;
};

/// Recipient policies for the route loops below. Both consume the same
/// kRoute words (one uniform_index draw, then the caller takes the
/// acceptance-priority word), so swapping policies never shifts any other
/// stream — the topology's draw bound is the ONE bound the single-shard
/// and sharded route paths share.
///
/// The complete graph keeps its own policy (rather than going through
/// ResolvedTopology::recipient) so the historical hot loop compiles to the
/// identical branch-free body it always had.
struct CompleteRecipient {
  std::uint64_t draw_bound;  ///< n - 1: uniform over the other agents
  template <typename Rng>
  std::uint32_t operator()(Rng& rng, std::uint32_t sender) const {
    auto to = static_cast<std::uint32_t>(uniform_index(rng, draw_bound));
    to += (to >= sender);
    return to;
  }
};

/// Sparse topologies: the drawn index selects an out-neighbor; the rewired
/// kinds additionally read the round's kTopology-lane key.
struct GraphRecipient {
  const ResolvedTopology* topo;
  StreamKey topo_key;
  template <typename Rng>
  std::uint32_t operator()(Rng& rng, std::uint32_t sender) const {
    return topo->recipient(rng, topo_key, sender);
  }
};

/// The word a routed message offers to the min-combine. Ranked: the full
/// acceptance_word, whose priority (the sender's kRoute draw after the
/// recipient) picks a uniform arrival. Unranked — a round in which every
/// arrival a recipient could read carries the same bit — the bare send
/// entry (bit 31 = opinion, low bits = sender): the min of equal-bit words
/// keeps that bit, and the skipped priority is the stream's last draw, so
/// no other draw shifts. Either way the word stays below kEmptySlot.
template <bool kRanked, typename Rng>
[[nodiscard]] inline std::uint64_t offered_word(Rng& rng,
                                                std::uint32_t e) noexcept {
  if constexpr (kRanked) {
    return acceptance_word(rng(), e);
  } else {
    return std::uint64_t{e};
  }
}

/// Routes one shard's senders and min-combines in place (the single-shard
/// fast path: no bucket materialization). kChurn filters asleep senders
/// through `awake` (unused when false — the template keeps the common
/// static-population loop branch-free); kRanked selects offered_word's
/// form (run_breathe decides it per round).
template <bool kChurn, bool kRanked = true, typename RecipientFn>
[[gnu::noinline]] inline RoutePartial route_combine(
    const std::uint32_t* __restrict__ send, std::size_t nsend,
    const RecipientFn recipient, const StreamKey rkey,
    const std::uint8_t* __restrict__ awake,
    std::uint64_t* __restrict__ slot, AgentId* __restrict__ tdata) {
  RoutePartial partial;
  std::size_t tsize = 0;
  for (std::size_t i = 0; i < nsend; ++i) {
    const std::uint32_t e = send[i];
    const std::uint32_t sender = e & kAgentMask;
    if constexpr (kChurn) {
      if (awake[sender] == 0) continue;  // asleep: no send, no draws
    }
    ++partial.sent;
    CounterRng rng(rkey, sender);
    const std::uint32_t to = recipient(rng, sender);
    tsize = combine(to, offered_word<kRanked>(rng, e), slot, tdata, tsize);
  }
  partial.touched = tsize;
  return partial;
}

/// Routes one shard's senders into per-destination-shard buckets (the
/// multi-shard route phase; `shard_mul` is the fastdiv reciprocal of the
/// shard block size). Returns the number of messages sent. kChurn and
/// kRanked as in route_combine.
template <bool kChurn, bool kRanked = true, typename RecipientFn>
[[gnu::noinline]] inline std::uint64_t route_scatter(
    const std::uint32_t* __restrict__ send, std::size_t nsend,
    const RecipientFn recipient, const StreamKey rkey,
    std::uint64_t shard_mul, const std::uint8_t* __restrict__ awake,
    std::vector<RoutedMsg>* __restrict__ out) {
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < nsend; ++i) {
    const std::uint32_t e = send[i];
    const std::uint32_t sender = e & kAgentMask;
    if constexpr (kChurn) {
      if (awake[sender] == 0) continue;
    }
    ++sent;
    CounterRng rng(rkey, sender);
    const std::uint32_t to = recipient(rng, sender);
    const auto dst = static_cast<std::size_t>(
        (static_cast<unsigned __int128>(to) * shard_mul) >> 64);
    out[dst].push_back(RoutedMsg{offered_word<kRanked>(rng, e), to});
  }
  return sent;
}

/// Min-combines one inbound bucket into a destination shard's slots.
/// Returns the updated touched count.
[[gnu::noinline]] inline std::size_t combine_bucket(
    const RoutedMsg* __restrict__ msgs, std::size_t count,
    std::uint64_t* __restrict__ slot, AgentId* __restrict__ tdata,
    std::size_t tsize) {
  for (std::size_t i = 0; i < count; ++i) {
    tsize = combine(msgs[i].to, msgs[i].word, slot, tdata, tsize);
  }
  return tsize;
}

/// Delivers one Stage II round for one shard's touched recipients: clears
/// each meta slot, applies the recipient-keyed channel flip, and bumps the
/// packed recv/ones/prefix counters. Under kChurn an asleep recipient's
/// accepted message is discarded (no draw, no counter bump) and counted as
/// an asleep drop. The counter bump is arithmetic on the 0/1 received bit:
/// the channel coin decides it, so a branch on it would mispredict.
template <bool kChurn, typename FlipFn>
[[gnu::noinline]] inline DeliverPartial deliver_stage2(
    const AgentId* __restrict__ tdata, std::size_t tsize,
    const StreamKey ckey, std::uint64_t threshold,
    const std::uint8_t* __restrict__ awake,
    std::uint64_t* __restrict__ slot, std::uint64_t* __restrict__ acc,
    FlipFn flips) {
  DeliverPartial partial;
  for (std::size_t i = 0; i < tsize; ++i) {
    if (i + 16 < tsize) {
      __builtin_prefetch(&slot[tdata[i + 16]], 1);
      __builtin_prefetch(&acc[tdata[i + 16]], 1);
    }
    const AgentId to = tdata[i];
    const std::uint64_t m = slot[to];
    slot[to] = kEmptySlot;
    if constexpr (kChurn) {
      if (awake[to] == 0) {
        ++partial.asleep_drops;
        continue;
      }
    }
    const bool sent_one = (m & kSendBit) != 0;
    CounterRng rng(ckey, to);
    const bool flip = flips(rng);
    partial.flipped += flip;
    std::uint64_t w = acc[to] + 1;  // ++recv
    const auto one = static_cast<std::uint64_t>(sent_one ^ flip);
    const auto in_prefix =
        static_cast<std::uint64_t>((w & kFieldMask) <= threshold);
    w += (one << kOnesShift) + ((one & in_prefix) << kPrefixShift);
    acc[to] = w;
  }
  return partial;
}

/// Delivers one Stage I round for one shard's touched recipients: churn
/// filter, channel flip, then the protocol's activation bookkeeping and
/// (under the uniform pick rule) the keyed reservoir decision.
template <bool kChurn, typename FlipFn>
[[gnu::noinline]] inline DeliverPartial deliver_stage1(
    const AgentId* __restrict__ tdata, std::size_t tsize,
    const StreamKey ckey, const StreamKey pkey, bool uniform_pick,
    const std::uint8_t* __restrict__ has_opinion,
    const std::uint8_t* __restrict__ awake,
    std::uint64_t* __restrict__ slot, std::uint64_t* __restrict__ acc,
    std::vector<AgentId>& activation, FlipFn flips) {
  DeliverPartial partial;
  for (std::size_t i = 0; i < tsize; ++i) {
    if (i + 16 < tsize) {
      __builtin_prefetch(&slot[tdata[i + 16]], 1);
      __builtin_prefetch(&acc[tdata[i + 16]], 1);
    }
    const AgentId to = tdata[i];
    const std::uint64_t m = slot[to];
    slot[to] = kEmptySlot;
    if constexpr (kChurn) {
      if (awake[to] == 0) {
        ++partial.asleep_drops;
        continue;
      }
    }
    const bool sent_one = (m & kSendBit) != 0;
    CounterRng rng(ckey, to);
    const bool flip = flips(rng);
    partial.flipped += flip;
    const bool seen_one = sent_one != flip;
    if (has_opinion[to]) continue;  // Stage I ignores opinionated agents
    const std::uint64_t v = acc[to];
    const std::uint64_t recv = (v & kS1RecvMask) + 1;
    if (recv == 1) activation.push_back(to);
    std::uint64_t kept;
    if (uniform_pick) {
      // Same decision BreatheProtocol::deliver makes from the same
      // (round, agent, kProtocol) stream.
      CounterRng prng(pkey, to);
      kept = (recv == 1 || uniform_index(prng, recv) == 0)
                 ? static_cast<std::uint64_t>(seen_one)
                 : (v >> kKeptShift);
    } else {
      kept = recv == 1 ? static_cast<std::uint64_t>(seen_one)
                       : (v >> kKeptShift);
    }
    acc[to] = recv | (kept << kKeptShift);
  }
  return partial;
}

}  // namespace detail

class BatchEngine {
 public:
  BatchEngine() = default;

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// The round layout both substrates run under — one copy of the
  /// skip_stage1/start_phase arithmetic that BreatheProtocol's constructor
  /// also performs, so the two cannot drift from each other. Public so the
  /// scenario layer can size round-anchored environment schedules without
  /// constructing a protocol first.
  struct BreatheSchedule {
    Round stage1_offset = 0;
    Round stage1_rounds = 0;
    Round total_rounds = 0;
    Round budget = 0;  ///< rounds this run executes (stage1_only truncates)
  };
  static BreatheSchedule breathe_schedule(const Params& params,
                                          const BreatheConfig& config,
                                          bool stage1_only);

  /// The sharded SoA fast path for the two-stage breathe protocol. Runs one
  /// execution; call in a loop for a block of trials (all buffers recycle).
  /// `stage1_only` truncates the budget to Stage I, like run_broadcast's
  /// stage1_only switch. Precondition: breathe_fast_supported(params).
  /// Results are identical for every options.shards / pool combination.
  /// Fills `result` in place (reset() keeps vector capacity), so a
  /// per-thread TrialArena recycles the stage stats and metrics series
  /// across trials instead of reallocating them.
  template <typename Channel>
  void run_breathe(const Params& params, const BreatheConfig& config,
                   Channel& channel, const StreamKey& trial_key,
                   bool stage1_only, const BreatheRunOptions& options,
                   BreatheFastResult& result) {
    const StageOneSchedule& s1 = params.stage1();
    const StageTwoSchedule& s2 = params.stage2();
    trial_key_ = trial_key;
    prepare_breathe(params, config, options);
    const auto [stage1_offset, stage1_rounds, total_rounds, budget] =
        breathe_schedule(params, config, stage1_only);

    result.reset();
    result.protocol_rounds = budget;
    Metrics& metrics = result.metrics;

    const std::size_t n = params.n();
    const ResolvedTopology& topo = topo_;
    const bool topo_complete = topo.complete();
    // The one recipient draw bound every route path shares: n - 1 on the
    // complete graph, the out-degree on sparse topologies.
    const std::uint64_t draw_bound = topo.draw_bound();
    const bool uniform_pick =
        config.stage1_pick == Stage1Pick::kUniformMessage;
    auto flips = detail::make_flip(channel);
    const std::size_t shards = shards_;
    const ChurnSpec& churn = options.engine.churn;
    const bool churn_on = churn.enabled();
    // churn_step's two bernoulli coins as integer thresholds: the per-agent
    // transition below is one compare against the one its state selects.
    const std::uint64_t sleep_threshold = bernoulli_threshold(churn.sleep_prob);
    const std::uint64_t wake_threshold = bernoulli_threshold(churn.wake_prob);
    const std::uint8_t* const awake = pop_.awake_data();

    std::uint64_t* const __restrict__ acc = acc_.data();
    std::uint64_t* const __restrict__ slot = slot_.data();

    // flip-lint: noalloc — the warm-trial round loop. Everything here must
    // run out of the scratch prepare_breathe() sized: tests/
    // trial_arena_test.cpp proves warm trials allocation-free at shards
    // 1/8, churn on/off with a counting global allocator — with the shard
    // phases inline (pool == nullptr); a real pool's parallel_for still
    // allocates per call. The lint region keeps explicit allocations from
    // creeping in on the paths that test doesn't execute. push_back into
    // capacity-kept vectors is the sanctioned idiom (capacity survives
    // across trials via reset()).
    for (Round r = 0; r < budget; ++r) {
      const bool in_s1 = r < stage1_rounds;
      // Whether a collision's winner is observable this round. Opinions
      // change only at phase ends and the sender lists are exactly the
      // opinionated agents, so these counts describe this round's senders
      // (churn only silences some of them). With one bit among them every
      // arrival carries it; in Stage I once everyone holds an opinion,
      // deliver reads no kept bit at all. Unranked rounds route the bare
      // entry (detail::offered_word) and skip the priority draw.
      const std::size_t ones = pop_.count(Opinion::kOne);
      const std::size_t opinionated = pop_.opinionated();
      const bool ranked = !(ones == 0 || ones == opinionated ||
                            (in_s1 && opinionated == n));
      const StreamKey route_key =
          round_stream_key(trial_key_, RngPurpose::kRoute, r);
      const StreamKey topo_key =
          topo.keyed() ? topo.round_key(trial_key_, r) : StreamKey{};
      const StreamKey channel_key =
          round_stream_key(trial_key_, RngPurpose::kChannel, r);
      const StreamKey protocol_key =
          round_stream_key(trial_key_, RngPurpose::kProtocol, r);
      const std::uint64_t threshold =
          in_s1 ? 0 : s2.half_length(s2.phase_of_round(r - stage1_rounds));

      // --- round-scoped environment events. The flip functor pins this
      // round's noise level (the burst lottery is one kEnvironment draw);
      // the churn phase advances every agent's liveness from its own
      // (round, agent, kChurn) stream, shard-parallel over the agent
      // blocks, and merges the per-shard liveness deltas exactly — the
      // same merge discipline as the Stage II opinion deltas. Each
      // transition is churn_step (core/environment.hpp, the form the
      // classic engine runs) with its coin as an integer compare.
      flips.begin_round(trial_key_, r);
      if (churn_on) {
        const StreamKey churn_key =
            round_stream_key(trial_key_, RngPurpose::kChurn, r);
        for_each_shard([&](std::size_t d) {
          ShardScratch& sh = shard_[d];
          sh.delta = {};
          const auto lo = static_cast<AgentId>(d * shard_block_);
          const auto hi = static_cast<AgentId>(
              std::min(n, (d + 1) * shard_block_));
          for (AgentId a = lo; a < hi; ++a) {
            const bool was = awake[a] != 0;
            CounterRng rng(churn_key, a);
            if ((rng() >> 11) < (was ? sleep_threshold : wake_threshold)) {
              pop_.set_awake_counted(a, !was, sh.delta);
            }
          }
        });
        for (const ShardScratch& sh : shard_) pop_.apply(sh.delta);
      }

      // --- route phase: every shard walks its own sender list. The sender
      // list is kept materialized across a phase (opinions only change at
      // phase boundaries), so the classic collect_sends pass disappears;
      // asleep senders are filtered per round against the liveness bytes.
      // Single shard min-combines in place (no bucket materialization);
      // multiple shards scatter into per-destination buckets.
      for_each_shard([&](std::size_t s) {
        ShardScratch& sh = shard_[s];
        // One statement of each argument list; the bool_constants pick the
        // churn-filtered or branch-free and the ranked or unranked loop
        // instantiation, the recipient policy the complete-graph or
        // neighbor-set draw.
        const auto route = [&](auto churn_c, auto ranked_c,
                               const auto recipient) {
          constexpr bool kChurn = decltype(churn_c)::value;
          constexpr bool kRanked = decltype(ranked_c)::value;
          if (shards == 1) {
            const detail::RoutePartial partial =
                detail::route_combine<kChurn, kRanked>(
                    sh.send.data(), sh.send.size(), recipient, route_key,
                    awake, slot, sh.touched.data());
            sh.touched_count = partial.touched;
            sh.sent = partial.sent;
          } else {
            sh.sent = detail::route_scatter<kChurn, kRanked>(
                sh.send.data(), sh.send.size(), recipient, route_key,
                shard_mul_, awake, sh.out.data());
          }
        };
        const auto route_ranked = [&](auto churn_c, const auto recipient) {
          if (ranked) {
            route(churn_c, std::true_type{}, recipient);
          } else {
            route(churn_c, std::false_type{}, recipient);
          }
        };
        const auto route_dispatch = [&](const auto recipient) {
          if (churn_on) {
            route_ranked(std::true_type{}, recipient);
          } else {
            route_ranked(std::false_type{}, recipient);
          }
        };
        if (topo_complete) {
          route_dispatch(detail::CompleteRecipient{draw_bound});
        } else {
          route_dispatch(detail::GraphRecipient{&topo, topo_key});
        }
      });

      // --- deliver phase: each shard owns a contiguous agent range. It
      // min-combines the arrivals destined for that range (scanning the
      // source buckets; order cannot matter), then flips + counts.
      for_each_shard([&](std::size_t d) {
        ShardScratch& sh = shard_[d];
        if (shards > 1) {
          std::size_t tsize = 0;
          for (ShardScratch& src : shard_) {
            std::vector<detail::RoutedMsg>& bucket = src.out[d];
            tsize = detail::combine_bucket(bucket.data(), bucket.size(),
                                           slot, sh.touched.data(), tsize);
            bucket.clear();
          }
          sh.touched_count = tsize;
        }

        const auto deliver = [&](auto churn_c) -> detail::DeliverPartial {
          constexpr bool kChurn = decltype(churn_c)::value;
          return in_s1 ? detail::deliver_stage1<kChurn>(
                             sh.touched.data(), sh.touched_count,
                             channel_key, protocol_key, uniform_pick,
                             pop_.has_opinion_data(), awake, slot, acc,
                             sh.activation, flips)
                       : detail::deliver_stage2<kChurn>(
                             sh.touched.data(), sh.touched_count,
                             channel_key, threshold, awake, slot, acc,
                             flips);
        };
        const detail::DeliverPartial partial = churn_on
                                                   ? deliver(std::true_type{})
                                                   : deliver(std::false_type{});
        sh.flipped = partial.flipped;
        sh.asleep_drops = partial.asleep_drops;
      });

      // --- merge the round's shard partials (integer sums: exact in any
      // order; summed in shard order anyway). delivered excludes accepted
      // messages lost to asleep recipients; every sent message is either
      // delivered or dropped (run_breathe channels never erase).
      std::uint64_t sent = 0;
      std::uint64_t accepted = 0;
      std::uint64_t asleep_drops = 0;
      for (ShardScratch& sh : shard_) {
        sent += sh.sent;
        accepted += sh.touched_count;
        asleep_drops += sh.asleep_drops;
        metrics.flipped += sh.flipped;
        sh.touched_count = 0;
        sh.sent = 0;
        sh.asleep_drops = 0;
      }
      metrics.messages_sent += sent;
      metrics.delivered += accepted - asleep_drops;
      metrics.dropped += sent - (accepted - asleep_drops);

      // --- end of round: phase boundaries, probes, termination.
      if (in_s1) {
        const Round sr = r + stage1_offset;
        const std::uint64_t phase = s1.phase_of_round(sr);
        if (sr + 1 == s1.phase_end(phase)) {
          finalize_stage1(phase, config.correct, result.stage1);
        }
      } else {
        const Round sr = r - stage1_rounds;
        const std::uint64_t phase = s2.phase_of_round(sr);
        if (sr + 1 == s2.phase_start(phase) + s2.phase_length(phase)) {
          finalize_stage2(phase, config, s2, result.stage2);
        }
      }
      metrics.rounds = r + 1;

      if (options.engine.probe_every != 0 &&
          r % options.engine.probe_every == 0) {
        metrics.bias_series.push_back({r, pop_.bias(config.correct)});
        metrics.activated_series.push_back(
            {r, static_cast<double>(pop_.opinionated())});
      }

      if (r + 1 >= total_rounds) break;
    }
    // flip-lint: end-noalloc

    finish_breathe(result, config.correct);
  }

 private:
  /// Per-shard scratch: the shard's materialized sender list, its touched /
  /// activation / opinionated lists (agents in the shard's range), its
  /// outgoing per-destination buckets, and its round/phase partials.
  struct ShardScratch {
    std::vector<std::uint32_t> send;  ///< sender id | opinion bit (bit 31)
    /// Recipients touched this round, sized to the shard's block up front
    /// and indexed directly (branchless append in the combine loops).
    std::vector<AgentId> touched;
    std::size_t touched_count = 0;
    std::vector<AgentId> activation;
    std::vector<AgentId> opinionated;
    std::vector<std::vector<detail::RoutedMsg>> out;
    Population::Delta delta;        ///< stage II finalize / churn partial
    std::uint64_t successful = 0;   ///< stage II finalize partial
    std::uint64_t flipped = 0;      ///< per-round partial
    std::uint64_t sent = 0;         ///< per-round partial (route phase)
    std::uint64_t asleep_drops = 0; ///< per-round partial (deliver phase)
  };

  // The Stage I fields of an agent (detail:: layout constants) are zeroed
  // when it activates, and every agent that ever received in Stage I
  // activates at its phase end, so Stage II starts from all-zero counters
  // without a stage-boundary wipe.

  [[nodiscard]] std::size_t shard_of(std::uint32_t agent) const noexcept {
    // Exact division by the invariant block size via one multiply
    // (Lemire's fastdiv: exact for all 32-bit dividends).
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(agent) * shard_mul_) >> 64);
  }

  /// Runs body(s) for every shard — on the pool when one was given and
  /// there is more than one shard, inline otherwise. The parallel_for
  /// return is the phase barrier.
  template <typename Body>
  void for_each_shard(Body&& body) {
    if (pool_ != nullptr && shards_ > 1) {
      pool_->parallel_for(shards_, body);
    } else {
      for (std::size_t s = 0; s < shards_; ++s) body(s);
    }
  }

  /// Validates the config (same rules as BreatheProtocol's constructor),
  /// resets all per-trial state, sizes the shard scratch, and seeds the
  /// initial set.
  void prepare_breathe(const Params& params, const BreatheConfig& config,
                       const BreatheRunOptions& options);

  /// Fills the end-of-run population summary fields of `result`.
  void finish_breathe(BreatheFastResult& result, Opinion correct) const;

  void finalize_stage1(std::uint64_t phase, Opinion correct,
                       std::vector<StageOnePhaseStats>& out);
  void finalize_stage2(std::uint64_t phase, const BreatheConfig& config,
                       const StageTwoSchedule& s2,
                       std::vector<StageTwoPhaseStats>& out);

  // Structure-of-arrays scratch, persistent across trials.
  Population pop_{2};
  std::vector<std::uint64_t> acc_;   ///< packed sample counters per agent
  std::vector<std::uint64_t> slot_;  ///< best offered_word, or kEmptySlot
  std::vector<ShardScratch> shard_;
  /// The trial's resolved interaction graph (prepare_breathe). Complete by
  /// default — the identity route path.
  ResolvedTopology topo_{};
  StreamKey trial_key_{};
  std::size_t shards_ = 1;
  std::size_t shard_block_ = 0;  ///< agents per shard, ceil(n / shards)
  std::uint64_t shard_mul_ = 0;  ///< ceil(2^64 / shard_block_)
  ThreadPool* pool_ = nullptr;
};

}  // namespace flip
