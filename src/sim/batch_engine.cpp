#include "sim/batch_engine.hpp"

#include <memory>

namespace flip {

bool breathe_fast_supported(const Params& params) {
  if (params.n() >= (std::uint64_t{1} << 31)) return false;
  const StageTwoSchedule& s2 = params.stage2();
  // Stage II counters live in 21-bit packed fields; an agent accepts at
  // most one message per round, so per-phase counts are bounded by the
  // phase length. (Stage I counts use 63 bits — never a constraint.)
  return std::max(s2.m, s2.m_final) <= detail::kFieldMask;
}

void BatchEngine::prepare_breathe(const Params& params,
                                  const BreatheConfig& config,
                                  const BreatheRunOptions& options) {
  if (config.start_phase > params.stage1().T + 1) {
    throw std::invalid_argument("BatchEngine: start_phase > T+1");
  }
  if (config.initial.empty()) {
    throw std::invalid_argument("BatchEngine: empty initial set");
  }

  const std::size_t n = params.n();
  // Resolve the interaction graph first: it throws on families that do not
  // fit n, and the route phase consults it every round. Sharding stays the
  // contiguous agent-block partition, which for ring/grid (row-major) is
  // also a graph-locality partition — a shard's senders mostly write slots
  // inside or adjacent to their own block.
  topo_ = ResolvedTopology::resolve(options.engine.topology, n);
  // Cap the shard count at n/2 so every block holds >= 2 agents: tinier
  // shards are pure overhead, and the fastdiv reciprocal below wraps to 0
  // at block size 1. Results are shard-invariant, so clamping is harmless.
  shards_ = std::clamp<std::size_t>(options.shards, 1,
                                    std::max<std::size_t>(1, n / 2));
  pool_ = options.pool;
  shard_block_ = (n + shards_ - 1) / shards_;
  shard_mul_ = ~std::uint64_t{0} / shard_block_ + 1;

  pop_.reuse(n);
  acc_.assign(n, 0);
  slot_.assign(n, detail::kEmptySlot);

  shard_.resize(shards_);
  for (ShardScratch& sh : shard_) {
    sh.send.clear();
    // touched is indexed directly by the branchless combine append, which
    // stores BEFORE it knows whether the arrival is a duplicate — once
    // every agent of the block is touched, further duplicates keep
    // rewriting one slot past the live region, so size to block + 1.
    sh.touched.resize(shard_block_ + 1);
    sh.touched_count = 0;
    sh.activation.clear();
    if (sh.activation.capacity() < shard_block_) {
      sh.activation.reserve(shard_block_);
    }
    sh.opinionated.clear();
    if (sh.opinionated.capacity() < shard_block_) {
      sh.opinionated.reserve(shard_block_);
    }
    sh.out.resize(shards_);
    for (auto& bucket : sh.out) bucket.clear();
    sh.delta = {};
    sh.successful = 0;
    sh.flipped = 0;
    sh.sent = 0;
    sh.asleep_drops = 0;
  }

  // The initial "not yet joined" set of the churn model: same keyed draws
  // as the classic engine's, so the two substrates agree on who is absent
  // at round 0. Seeds are NOT exempt — an asleep source simply stays
  // silent until its wake draw fires.
  const ChurnSpec& churn = options.engine.churn;
  if (churn.start_asleep > 0.0) {
    for (AgentId a = 0; a < n; ++a) {
      if (churn_starts_asleep(churn, trial_key_, a)) {
        pop_.set_awake(a, false);
      }
    }
  }

  for (const Seed& seed : config.initial) {
    if (seed.agent >= n) {
      throw std::invalid_argument("BatchEngine: seed agent out of range");
    }
    if (pop_.has_opinion(seed.agent)) {
      throw std::invalid_argument("BatchEngine: duplicate seed agent");
    }
    pop_.set_opinion(seed.agent, seed.opinion);
    ShardScratch& sh = shard_[shard_of(seed.agent)];
    sh.opinionated.push_back(seed.agent);
    sh.send.push_back(seed.agent |
                      (seed.opinion == Opinion::kOne ? detail::kSendBit : 0u));
  }
}

void BatchEngine::finish_breathe(BreatheFastResult& result,
                                 Opinion correct) const {
  result.opinionated = pop_.opinionated();
  result.success = pop_.unanimous(correct);
  result.correct_fraction = pop_.correct_fraction(correct);
  result.final_bias = pop_.bias(correct);
}

// flip-lint: noalloc — phase-boundary work runs inside the warm round
// loop; the out vectors keep their capacity across trials (reset()).
void BatchEngine::finalize_stage1(std::uint64_t phase, Opinion correct,
                                  std::vector<StageOnePhaseStats>& out) {
  // Phase-end work is O(#newly activated): run it sequentially, shard by
  // shard, so the Population aggregates need no merging. No draws happen
  // here, so the shard iteration order is observable only through list
  // order — which nothing downstream depends on (senders are keyed by id).
  StageOnePhaseStats stats;
  stats.phase = phase;
  for (ShardScratch& sh : shard_) {
    stats.newly_activated += sh.activation.size();
    for (const AgentId a : sh.activation) {
      const std::uint64_t kept = acc_[a] >> detail::kKeptShift;
      const auto opinion = static_cast<Opinion>(kept);
      pop_.set_opinion(a, opinion);
      stats.newly_correct += (opinion == correct);
      acc_[a] = 0;  // reset_phase_counters
      sh.opinionated.push_back(a);
      sh.send.push_back(a | (kept != 0 ? detail::kSendBit : 0u));
    }
    sh.activation.clear();
    stats.total_activated += sh.opinionated.size();
  }
  out.push_back(stats);
}

void BatchEngine::finalize_stage2(std::uint64_t phase,
                                  const BreatheConfig& config,
                                  const StageTwoSchedule& s2,
                                  std::vector<StageTwoPhaseStats>& out) {
  const std::uint64_t threshold = s2.half_length(phase);
  const bool prefix_subset =
      config.stage2_subset == Stage2Subset::kPrefixSubset;
  // Each successful agent's majority-subset draw is O(threshold) words from
  // its own (phase, agent, kSubset) stream (none when its counts decide the
  // majority), so the scan parallelizes over shards: per-shard counter
  // deltas are merged (exact integer sums) after the barrier, in shard
  // order.
  const StreamKey subset_key =
      round_stream_key(trial_key_, RngPurpose::kSubset, phase);
  const std::size_t n = pop_.size();
  for_each_shard([&](std::size_t d) {
    ShardScratch& sh = shard_[d];
    sh.delta = {};
    sh.successful = 0;
    const auto lo = static_cast<AgentId>(d * shard_block_);
    const auto hi = static_cast<AgentId>(
        std::min(n, (d + 1) * shard_block_));
    for (AgentId a = lo; a < hi; ++a) {
      const std::uint64_t w = acc_[a];
      const std::uint64_t recv = w & detail::kFieldMask;
      if (recv >= threshold) {
        // Successful agent: majority over a subset of exactly `threshold`
        // samples, uniform (hypergeometric draw, skipped when the counts
        // decide it) or the arrival-order prefix.
        ++sh.successful;
        CounterRng rng(subset_key, a);
        const bool one =
            prefix_subset
                ? 2 * ((w >> detail::kPrefixShift) & detail::kFieldMask) >
                      threshold
                : hypergeometric_majority(
                      rng, recv, (w >> detail::kOnesShift) & detail::kFieldMask,
                      threshold);
        const Opinion verdict = one ? Opinion::kOne : Opinion::kZero;
        if (!pop_.has_opinion(a)) sh.opinionated.push_back(a);
        pop_.set_opinion_counted(a, verdict, sh.delta);
      }
      acc_[a] = 0;
    }
    // Re-decisions may have flipped opinions anywhere in this shard's
    // range: rebuild its sender list (O(range) once per phase, not per
    // round).
    sh.send.clear();
    for (const AgentId a : sh.opinionated) {
      sh.send.push_back(
          a | (pop_.opinion(a) == Opinion::kOne ? detail::kSendBit : 0u));
    }
  });

  StageTwoPhaseStats stats;
  stats.phase = phase;
  for (const ShardScratch& sh : shard_) {
    pop_.apply(sh.delta);
    stats.successful += sh.successful;
  }
  stats.correct_fraction = pop_.correct_fraction(config.correct);
  stats.bias = pop_.bias(config.correct);
  out.push_back(stats);
}
// flip-lint: end-noalloc

}  // namespace flip
